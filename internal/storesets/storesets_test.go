package storesets

import "testing"

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{SSITEntries: 1000, LFSTEntries: 1024, ConfidenceBits: 2, ConfidenceThreshold: 2},
		{SSITEntries: 4096, LFSTEntries: 0, ConfidenceBits: 2, ConfidenceThreshold: 2},
		{SSITEntries: 4096, LFSTEntries: 1024, ConfidenceBits: 0, ConfidenceThreshold: 0},
		{SSITEntries: 4096, LFSTEntries: 1024, ConfidenceBits: 2, ConfidenceThreshold: 4},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad[%d] accepted", i)
		}
	}
}

func TestColdPredictorPredictsIndependent(t *testing.T) {
	p := New(DefaultConfig())
	if pred := p.PredictLoad(0x400100); pred.DependsOnStore {
		t.Error("cold predictor should not predict a dependence")
	}
}

func TestViolationTrainingCreatesDependence(t *testing.T) {
	p := New(DefaultConfig())
	loadPC, storePC := uint64(0x400100), uint64(0x400050)
	p.TrainViolation(loadPC, storePC)
	// A live instance of the store must be in the LFST for the prediction to
	// name a concrete SSN.
	p.StoreRenamed(storePC, 7, 1000)
	pred := p.PredictLoad(loadPC)
	if !pred.DependsOnStore || pred.StoreSSN != 7 || pred.StoreSeq != 1000 || pred.StorePC != storePC {
		t.Errorf("prediction = %+v", pred)
	}
}

func TestPredictionWithoutLiveStoreInstance(t *testing.T) {
	p := New(DefaultConfig())
	p.TrainViolation(0x400100, 0x400050)
	pred := p.PredictLoad(0x400100)
	if pred.DependsOnStore {
		t.Error("no live store instance: prediction should not claim a dependence")
	}
	if pred.StorePC != 0x400050 {
		t.Errorf("predicted store PC = %#x", pred.StorePC)
	}
}

func TestStoreCompletedClearsLFST(t *testing.T) {
	p := New(DefaultConfig())
	p.TrainViolation(0x400100, 0x400050)
	p.StoreRenamed(0x400050, 9, 500)
	p.StoreCompleted(0x400050, 9)
	if pred := p.PredictLoad(0x400100); pred.DependsOnStore {
		t.Error("completed store should no longer constrain loads")
	}
	// Completing an older instance must not clear a newer one.
	p.StoreRenamed(0x400050, 10, 600)
	p.StoreCompleted(0x400050, 9)
	if pred := p.PredictLoad(0x400100); !pred.DependsOnStore || pred.StoreSSN != 10 {
		t.Errorf("newer instance lost: %+v", pred)
	}
}

func TestConfidenceDecay(t *testing.T) {
	p := New(DefaultConfig())
	loadPC, storePC := uint64(0x400200), uint64(0x400060)
	p.TrainViolation(loadPC, storePC)
	p.StoreRenamed(storePC, 3, 30)
	if !p.PredictLoad(loadPC).DependsOnStore {
		t.Fatal("expected dependence after training")
	}
	// Repeated no-dependence training pushes confidence below threshold.
	p.TrainNoDependence(loadPC)
	p.TrainNoDependence(loadPC)
	if p.PredictLoad(loadPC).DependsOnStore {
		t.Error("confidence should have decayed below threshold")
	}
	// Re-training restores it.
	p.TrainViolation(loadPC, storePC)
	if !p.PredictLoad(loadPC).DependsOnStore {
		t.Error("re-training should restore the dependence")
	}
}

func TestRetrainingReplacesStorePC(t *testing.T) {
	p := New(DefaultConfig())
	loadPC := uint64(0x400300)
	p.TrainViolation(loadPC, 0x400070)
	p.TrainViolation(loadPC, 0x400080) // new conflicting store
	p.StoreRenamed(0x400080, 4, 40)
	pred := p.PredictLoad(loadPC)
	if !pred.DependsOnStore || pred.StorePC != 0x400080 {
		t.Errorf("prediction should follow the newer store, got %+v", pred)
	}
}

func TestTagMismatchIsIndependent(t *testing.T) {
	cfg := Config{SSITEntries: 16, LFSTEntries: 8, ConfidenceBits: 2, ConfidenceThreshold: 2}
	p := New(cfg)
	p.TrainViolation(0x400100, 0x400050)
	p.StoreRenamed(0x400050, 5, 100)
	// A different load PC that aliases to the same SSIT index (16 entries ->
	// index bits 2..5) must not inherit the dependence thanks to the tag.
	alias := uint64(0x400100 + 16*4)
	if p.PredictLoad(alias).DependsOnStore {
		t.Error("aliasing load inherited a dependence despite tag mismatch")
	}
}

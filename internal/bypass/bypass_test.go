package bypass

import (
	"testing"
	"testing/quick"
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	unbounded := DefaultConfig()
	unbounded.Entries = 0
	if err := unbounded.Validate(); err != nil {
		t.Errorf("unbounded config rejected: %v", err)
	}
	bad := []Config{
		{Entries: -1, Assoc: 4, HistoryBits: 8, DistanceBits: 6, ConfidenceBits: 7, ConfidenceThreshold: 64, Hybrid: true},
		{Entries: 2048, Assoc: 0, HistoryBits: 8, DistanceBits: 6, ConfidenceBits: 7, ConfidenceThreshold: 64, Hybrid: true},
		{Entries: 2048, Assoc: 4, HistoryBits: 8, DistanceBits: 0, ConfidenceBits: 7, ConfidenceThreshold: 64, Hybrid: true},
		{Entries: 2048, Assoc: 4, HistoryBits: 8, DistanceBits: 6, ConfidenceBits: 7, ConfidenceThreshold: 200, Hybrid: true},
		{Entries: 1536, Assoc: 4, HistoryBits: 8, DistanceBits: 6, ConfidenceBits: 7, ConfidenceThreshold: 64, Hybrid: true},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad[%d] accepted: %+v", i, c)
		}
	}
}

func TestStorageBytesMatchesPaper(t *testing.T) {
	// Paper: 2K entries at 5 bytes each = 10KB.
	if got := DefaultConfig().StorageBytes(); got != 10*1024 {
		t.Errorf("StorageBytes = %d, want 10240", got)
	}
}

func TestMaxDistance(t *testing.T) {
	if got := DefaultConfig().MaxDistance(); got != 63 {
		t.Errorf("MaxDistance = %d, want 63 for 6 bits", got)
	}
}

func TestColdPredictorMisses(t *testing.T) {
	p := New(DefaultConfig())
	if pred := p.Predict(0x400100, 0); pred.Hit {
		t.Error("cold predictor should miss")
	}
}

func TestTrainThenPredictDistance(t *testing.T) {
	p := New(DefaultConfig())
	pc := uint64(0x400100)
	p.Train(pc, 0, Outcome{Bypassable: true, Distance: 3, Shift: 0, StoreSize: 8}, false)
	pred := p.Predict(pc, 0)
	if !pred.Hit || pred.NoBypass || pred.Distance != 3 || pred.StoreSize != 8 {
		t.Errorf("prediction = %+v", pred)
	}
	if !pred.Confident {
		t.Error("fresh entry should start above the confidence threshold")
	}
}

func TestTrainNoBypassOutcome(t *testing.T) {
	p := New(DefaultConfig())
	pc := uint64(0x400200)
	p.Train(pc, 0, Outcome{Bypassable: false}, false)
	pred := p.Predict(pc, 0)
	if !pred.Hit || !pred.NoBypass {
		t.Errorf("prediction = %+v, want NoBypass hit", pred)
	}
}

func TestTrainUnrepresentableDistanceBecomesNoBypass(t *testing.T) {
	p := New(DefaultConfig())
	pc := uint64(0x400300)
	p.Train(pc, 0, Outcome{Bypassable: true, Distance: 100, StoreSize: 8}, false)
	pred := p.Predict(pc, 0)
	if !pred.Hit || !pred.NoBypass {
		t.Errorf("distance 100 exceeds 6 bits; prediction = %+v, want NoBypass", pred)
	}
}

func TestPartialWordShiftLearned(t *testing.T) {
	p := New(DefaultConfig())
	pc := uint64(0x400400)
	p.Train(pc, 0, Outcome{Bypassable: true, Distance: 1, Shift: 4, StoreSize: 8}, false)
	pred := p.Predict(pc, 0)
	if pred.Shift != 4 || pred.StoreSize != 8 {
		t.Errorf("shift/size = %d/%d, want 4/8", pred.Shift, pred.StoreSize)
	}
}

func TestPathSensitivityResolvesConflictingDistances(t *testing.T) {
	p := New(DefaultConfig())
	pc := uint64(0x400500)
	histA, histB := uint64(0b10101010), uint64(0b01010101)
	p.Train(pc, histA, Outcome{Bypassable: true, Distance: 2, StoreSize: 8}, false)
	p.Train(pc, histB, Outcome{Bypassable: true, Distance: 7, StoreSize: 8}, false)
	predA := p.Predict(pc, histA)
	predB := p.Predict(pc, histB)
	if !predA.FromPathTable || !predB.FromPathTable {
		t.Fatalf("expected path-sensitive hits: %+v %+v", predA, predB)
	}
	if predA.Distance != 2 || predB.Distance != 7 {
		t.Errorf("path-sensitive distances = %d, %d; want 2, 7", predA.Distance, predB.Distance)
	}
}

func TestPathInsensitiveFallback(t *testing.T) {
	p := New(DefaultConfig())
	pc := uint64(0x400600)
	p.Train(pc, 0b1111, Outcome{Bypassable: true, Distance: 5, StoreSize: 8}, false)
	// Different history: the path-sensitive table misses but the
	// path-insensitive table still provides the most recent training.
	pred := p.Predict(pc, 0b0000)
	if !pred.Hit || pred.FromPathTable {
		t.Errorf("expected path-insensitive fallback, got %+v", pred)
	}
	if pred.Distance != 5 {
		t.Errorf("fallback distance = %d, want 5", pred.Distance)
	}
}

func TestNonHybridIgnoresHistory(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Hybrid = false
	p := New(cfg)
	pc := uint64(0x400700)
	p.Train(pc, 0b1010, Outcome{Bypassable: true, Distance: 4, StoreSize: 8}, false)
	predA := p.Predict(pc, 0b1010)
	predB := p.Predict(pc, 0b0101)
	if predA != predB {
		t.Errorf("non-hybrid predictor should be history-independent: %+v vs %+v", predA, predB)
	}
	if predA.FromPathTable {
		t.Error("non-hybrid predictor cannot produce path-table hits")
	}
}

func TestConfidenceDelayMechanism(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ConfidenceBits = 3
	cfg.ConfidenceThreshold = 4
	p := New(cfg)
	pc := uint64(0x400800)
	hist := uint64(0b1100)
	p.Train(pc, hist, Outcome{Bypassable: true, Distance: 1, StoreSize: 8}, false)
	if !p.Predict(pc, hist).Confident {
		t.Fatal("fresh entry should be confident")
	}
	// Repeated mispredictions with a path-sensitive entry available drive
	// confidence below threshold, engaging delay.
	for i := 0; i < 5; i++ {
		p.Train(pc, hist, Outcome{Bypassable: true, Distance: 1, StoreSize: 8}, true)
	}
	if p.Predict(pc, hist).Confident {
		t.Error("confidence should have dropped below threshold after repeated mispredictions")
	}
	// Rewards restore confidence.
	for i := 0; i < 8; i++ {
		p.Reward(pc, hist)
	}
	if !p.Predict(pc, hist).Confident {
		t.Error("rewards should restore confidence")
	}
}

// TestRewardWithoutEntryIsHarmless: rewarding a load the predictor holds no
// entry for creates none.
func TestRewardWithoutEntryIsHarmless(t *testing.T) {
	p := New(DefaultConfig())
	p.Reward(0x400900, 0)
	if pred := p.Predict(0x400900, 0); pred.Hit {
		t.Errorf("a reward without an entry created one: %+v", pred)
	}
}

func TestUnboundedCapacityNeverEvicts(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Entries = 0
	p := New(cfg)
	// Train far more distinct loads than the bounded predictor could hold.
	for i := 0; i < 10000; i++ {
		pc := uint64(0x400000 + i*4)
		p.Train(pc, 0, Outcome{Bypassable: true, Distance: uint64(i % 60), StoreSize: 8}, false)
	}
	for i := 0; i < 10000; i++ {
		pc := uint64(0x400000 + i*4)
		pred := p.Predict(pc, 0)
		if !pred.Hit || pred.Distance != uint64(i%60) {
			t.Fatalf("unbounded predictor lost entry %d: %+v", i, pred)
		}
	}
}

func TestBoundedCapacityEvicts(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Entries = 64
	cfg.Assoc = 4
	p := New(cfg)
	for i := 0; i < 4096; i++ {
		pc := uint64(0x400000 + i*4)
		p.Train(pc, 0, Outcome{Bypassable: true, Distance: 1, StoreSize: 8}, false)
	}
	misses := 0
	for i := 0; i < 4096; i++ {
		if !p.Predict(uint64(0x400000+i*4), 0).Hit {
			misses++
		}
	}
	if misses == 0 {
		t.Error("bounded predictor should have evicted some of 4096 loads")
	}
}

func TestPathHistory(t *testing.T) {
	var h PathHistory
	h = h.PushBranch(true).PushBranch(false).PushCall(0x40010c)
	// 1, then 0, then low 2 bits of (0x40010c>>2) = 0b11.
	if got := h.Value(); got != 0b1011 {
		t.Errorf("history = %b, want 1011", got)
	}
}

// Property: after training with any representable outcome, an immediate
// predict with the same PC and history returns exactly that outcome.
func TestTrainPredictRoundTripProperty(t *testing.T) {
	f := func(pcSel uint16, hist uint64, dist uint8, shift uint8, sizeSel uint8) bool {
		p := New(DefaultConfig())
		pc := 0x400000 + uint64(pcSel)*4
		sizes := []uint8{1, 2, 4, 8}
		out := Outcome{
			Bypassable: true,
			Distance:   uint64(dist % 64),
			Shift:      shift % 8,
			StoreSize:  sizes[sizeSel%4],
		}
		p.Train(pc, hist, out, false)
		pred := p.Predict(pc, hist)
		return pred.Hit && !pred.NoBypass &&
			pred.Distance == out.Distance &&
			pred.Shift == out.Shift &&
			pred.StoreSize == out.StoreSize
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: confidence never exceeds its maximum or goes below zero no matter
// the sequence of rewards and trainings.
func TestConfidenceBoundedProperty(t *testing.T) {
	f := func(ops []bool) bool {
		cfg := DefaultConfig()
		cfg.ConfidenceBits = 4
		cfg.ConfidenceThreshold = 8
		p := New(cfg)
		pc := uint64(0x400000)
		p.Train(pc, 0, Outcome{Bypassable: true, Distance: 1, StoreSize: 8}, false)
		for _, op := range ops {
			if op {
				p.Reward(pc, 0)
			} else {
				p.Train(pc, 0, Outcome{Bypassable: true, Distance: 1, StoreSize: 8}, true)
			}
			// Predict must never panic and Confident must be derivable.
			p.Predict(pc, 0)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestHistoryFromValueRoundTrip(t *testing.T) {
	h := PathHistory{}.PushBranch(true).PushCall(0x400104).PushBranch(false)
	restored := HistoryFromValue(h.Value())
	if restored.Value() != h.Value() {
		t.Errorf("HistoryFromValue round trip: %b != %b", restored.Value(), h.Value())
	}
	// Continuing from a restored history behaves like the original.
	if restored.PushBranch(true).Value() != h.PushBranch(true).Value() {
		t.Error("restored history diverges from original")
	}
}

func TestConfidenceDecayConfigurable(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ConfidenceBits = 7
	cfg.ConfidenceThreshold = 64
	cfg.ConfidenceDecay = 16
	p := New(cfg)
	pc := uint64(0x401000)
	p.Train(pc, 0, Outcome{Bypassable: true, Distance: 1, StoreSize: 8}, false)
	// Two heavy decays drop a fresh entry (65+1) well below threshold.
	p.Train(pc, 0, Outcome{Bypassable: true, Distance: 1, StoreSize: 8}, true)
	p.Train(pc, 0, Outcome{Bypassable: true, Distance: 1, StoreSize: 8}, true)
	if p.Predict(pc, 0).Confident {
		t.Error("confidence should be below threshold after heavy decay")
	}
	bad := DefaultConfig()
	bad.ConfidenceDecay = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative decay accepted")
	}
}

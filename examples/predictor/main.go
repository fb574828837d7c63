// Predictor: use the NoSQ building blocks directly, without the timing
// simulator. The example records a synthetic workload with the functional
// emulator, replays the trace through the distance-based bypassing predictor
// with the oracle dependences of every dynamic load, and measures (a) the
// predictor's accuracy and (b) how many re-executions the tagged SVW filter
// (T-SSBF) would screen out.
//
// This mirrors how the decode-stage predictor and the commit-stage filter are
// used inside the full NoSQ pipeline, but at trace level, so it is a good
// starting point for experimenting with new predictor organisations.
//
// Run with:
//
//	go run ./examples/predictor
package main

import (
	"fmt"
	"log"

	"repro/internal/bypass"
	"repro/internal/emu"
	"repro/internal/svw"
	"repro/internal/workload"
)

func main() {
	prog, err := workload.Generate("vortex", workload.Options{Iterations: 300})
	if err != nil {
		log.Fatal(err)
	}
	trace, err := emu.RecordTrace(prog, 2_000_000)
	if err != nil {
		log.Fatal(err)
	}
	cursor := trace.Cursor(0)

	predictor := bypass.New(bypass.DefaultConfig())
	filter := svw.NewTSSBF(128, 4)
	var hist bypass.PathHistory

	var loads, communicating, correct, mispredicted, filtered uint64
	var hits, pathHits, storeUpdates uint64

	for seq := uint64(1); seq <= trace.Len(); seq++ {
		d, _ := cursor.Get(seq)
		st := cursor.Static(d)
		dep := d.Dep()
		switch {
		case st.IsCondBranch():
			hist = hist.PushBranch(d.Taken())
		case st.IsCall():
			hist = hist.PushCall(st.PC)
		case st.IsStore():
			storeUpdates++
			filter.StoreCommit(d.EffAddr(), d.StoreSSN(), st.MemSize)
		case st.IsLoad():
			loads++
			pred := predictor.Predict(st.PC, hist.Value())
			if pred.Hit {
				hits++
			}
			if pred.FromPathTable {
				pathHits++
			}
			dist, hasDep := d.Distance()
			if hasDep {
				communicating++
			}
			// A prediction is correct when it names exactly the communicating
			// store (distance and shift), or correctly predicts "no bypass".
			predictedDist, predictedBypass := pred.Distance, pred.Hit && !pred.NoBypass
			ok := false
			switch {
			case !predictedBypass && !hasDep:
				ok = true
			case predictedBypass && hasDep && predictedDist == dist &&
				pred.Shift == dep.Shift && !dep.MultiSource:
				ok = true
			}
			if ok {
				correct++
				predictor.Reward(st.PC, hist.Value())
			} else {
				mispredicted++
				out := bypass.Outcome{}
				if hasDep {
					out = bypass.Outcome{
						Bypassable: !dep.MultiSource,
						Distance:   dist,
						Shift:      dep.Shift,
						StoreSize:  cursor.DepStore(dep).MemSize,
					}
				}
				predictor.Train(st.PC, hist.Value(), out, pred.FromPathTable)
			}
			// Commit-time SVW filter test: would this load have re-executed?
			var reexec bool
			if predictedBypass && hasDep {
				reexec = filter.TestBypassed(d.EffAddr(), st.MemSize, dep.SSN, pred.Shift)
			} else {
				reexec = filter.TestNonBypassed(d.EffAddr(), dep.SSN)
			}
			if !reexec {
				filtered++
			}
		}
	}

	fmt.Printf("dynamic loads:              %d\n", loads)
	fmt.Printf("loads with dependences:     %d (%.1f%%)\n", communicating, pct(communicating, loads))
	fmt.Printf("predictions correct:        %d (%.2f%%)\n", correct, pct(correct, loads))
	fmt.Printf("mis-predictions per 10k:    %.1f\n", 10000*float64(mispredicted)/float64(loads))
	fmt.Printf("re-executions filtered:     %d (%.1f%% of loads skip the cache at commit)\n", filtered, pct(filtered, loads))
	// Every load made one prediction and one filter test, and every
	// mis-prediction one training.
	fmt.Printf("predictor: %d lookups, %d hits, %d path-table hits, %d trainings\n",
		loads, hits, pathHits, mispredicted)
	fmt.Printf("T-SSBF: %d store updates, %d load tests, re-execution rate %.2f%%\n",
		storeUpdates, loads, pct(loads-filtered, loads))
}

func pct(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

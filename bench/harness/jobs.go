package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/program"
	"repro/internal/simapi"
	"repro/internal/simclient"
	"repro/internal/traceio"
	"repro/internal/workload"
)

// Salts separate the random streams drawn from one seed, so that changing
// how one list is drawn never shifts another.
const (
	saltGrid uint64 = iota + 1
	saltSingle
	saltFleet
	saltWarm
	saltDraws
	saltTraces
)

func rngFor(seed, salt uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, salt)) }

// benchGroup returns group i of an endless sequence of groups of size
// benchmarks: each cycle is a fresh seeded permutation of all 47 benchmarks,
// cut into consecutive groups (the last group of a cycle may be smaller).
// Every cycle covers every benchmark once, so runs of similar length see a
// similar benchmark mix whatever the seed.
func benchGroup(seed, salt uint64, size, i int) []string {
	names := core.Benchmarks()
	per := (len(names) + size - 1) / size
	perm := rngFor(seed, salt<<32|uint64(i/per)).Perm(len(names))
	s := i % per
	var out []string
	for _, k := range perm[s*size : min((s+1)*size, len(names))] {
		out = append(out, names[k])
	}
	return out
}

// gridSpec is job i of sweep-grid: one benchmark under all five
// configuration kinds at windows 128 and 256.
func gridSpec(seed uint64, sc scale, i int) simapi.JobSpec {
	return simapi.JobSpec{
		Experiment: "sweep",
		Source:     simclient.BenchmarkSource(benchGroup(seed, saltGrid, 1, i)...),
		Iterations: walk(sc.gridIters, i, rngFor(seed, saltGrid).IntN(1<<20)),
		Windows:    []int{128, 256},
	}
}

// singleSpec is job i of sweep-single: singleWidth benchmarks under the
// single configuration nosq-delay at window 128, so every execution group
// has width 1.
func singleSpec(seed uint64, sc scale, i int) simapi.JobSpec {
	return simapi.JobSpec{
		Experiment: "sweep",
		Source:     simclient.BenchmarkSource(benchGroup(seed, saltSingle, singleWidth, i)...),
		Iterations: walk(sc.singleIters, i, rngFor(seed, saltSingle).IntN(1<<20)),
		Configs:    []string{"nosq-delay"},
		Windows:    []int{128},
	}
}

// serviceSpecs draws n distinct service jobs for the given trace refs. Each
// block of eight holds, in a seeded order, five benchmark sweeps (all five
// kinds; three of one benchmark and two of two), two stress-scenario jobs
// (the scenarios in seeded rotation) and one trace job. Sweep iterations,
// each scenario's iterations and trace MaxInsts walk their ranges without
// repeating a value (see walk), so no two jobs share a (source, length) pair
// and every pair of every job misses the result cache; and every run of the
// same length simulates about the same amount of work, whatever the seed.
func serviceSpecs(seed, salt uint64, sc scale, refs []string, n int) []simapi.JobSpec {
	g := rngFor(seed, salt)
	scen := workload.StressScenarioNames()
	offs := make([]int, len(scen)+3) // each walk's seeded starting point
	for k := range offs {
		offs[k] = g.IntN(1 << 20)
	}
	var specs []simapi.JobSpec
	var nSweep, nStress, nTrace, pos int
	for len(specs) < n {
		block := []byte("SSSSSXXT")
		g.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		widths := []int{1, 1, 1, 2, 2}
		g.Shuffle(len(widths), func(a, b int) { widths[a], widths[b] = widths[b], widths[a] })
		for _, kind := range block {
			switch kind {
			case 'S':
				var names []string
				for len(names) < widths[nSweep%len(widths)] {
					if b := benchGroup(seed, salt, 1, pos)[0]; !slices.Contains(names, b) {
						names = append(names, b)
					}
					pos++
				}
				specs = append(specs, simapi.JobSpec{Experiment: "sweep",
					Source: simclient.BenchmarkSource(names...), Iterations: walk(sc.sweepIters, nSweep, offs[0])})
				nSweep++
			case 'X':
				k := (offs[1] + nStress) % len(scen)
				specs = append(specs, simapi.JobSpec{Experiment: "scenario",
					Source: simclient.BenchmarkSource(scen[k]), Iterations: walk(sc.stressIters, nStress/len(scen), offs[3+k])})
				nStress++
			case 'T':
				specs = append(specs, simapi.JobSpec{Experiment: "trace",
					Source: simclient.TraceSource(refs...), MaxInsts: uint64(walk(sc.traceMaxInsts, nTrace, offs[2]))})
				nTrace++
			}
		}
	}
	return specs[:n]
}

// walk returns value j of a walk through the closed range r that starts at a
// seeded offset and steps by a stride near the golden section of the range's
// size and coprime with it: its first size values are distinct, and any run
// of consecutive values spreads evenly over the range.
func walk(r [2]int, j, off int) int {
	size := r[1] - r[0] + 1
	stride := max(1, int(float64(size)*0.618))
	for gcd(stride, size) != 1 {
		stride++
	}
	return r[0] + (off+j*stride)%size
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// recordTraceSet records the service workloads' trace set into
// dir/bench/traces, the directory the trace experiment reads relative to the
// working directory: the first sc.traceInsts instructions of one seeded
// benchmark and of one seeded stress scenario, each written as a .nsqt file
// with its manifest. Every seed's trace set is the same size. It returns the
// manifests in recording order.
func recordTraceSet(dir string, seed uint64, sc scale) ([]traceio.Manifest, error) {
	out := filepath.Join(dir, "bench", "traces")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	g := rngFor(seed, saltTraces)
	bench := core.Benchmarks()[g.IntN(len(core.Benchmarks()))]
	scen := workload.StressScenarioNames()[g.IntN(len(workload.StressScenarioNames()))]
	wopts := workload.Options{Iterations: sc.traceIters}
	p1, err := workload.Generate(bench, wopts)
	if err != nil {
		return nil, err
	}
	s, _ := workload.StressScenarioByName(scen)
	p2, err := workload.GenerateScenario(s, wopts)
	if err != nil {
		return nil, err
	}
	var ms []traceio.Manifest
	for _, p := range []struct {
		prog *program.Program
		gen  string
	}{
		{p1, fmt.Sprintf("workload:%s iters=%d max-insts=%d", bench, sc.traceIters, sc.traceInsts)},
		{p2, fmt.Sprintf("scenario:%s@%.16s iters=%d max-insts=%d", s.Name, s.Hash(), sc.traceIters, sc.traceInsts)},
	} {
		m, err := writeTrace(out, p.prog, uint64(sc.traceInsts), p.gen)
		if err != nil {
			return nil, err
		}
		ms = append(ms, m)
	}
	return ms, nil
}

// writeTrace records up to limit instructions of a program and commits it under dir the way
// nosq-trace -record does: encode under a temporary name, rename to the
// content-addressed name, then write the manifest beside it.
func writeTrace(dir string, p *program.Program, limit uint64, generator string) (traceio.Manifest, error) {
	tr, err := emu.RecordTrace(p, limit)
	if err != nil {
		return traceio.Manifest{}, fmt.Errorf("recording %s: %w", p.Name, err)
	}
	tmp := filepath.Join(dir, ".recording.nsqt")
	sum, err := traceio.WriteFile(tmp, tr)
	if err != nil {
		return traceio.Manifest{}, err
	}
	m := traceio.NewManifest(sum, generator, "bench-harness")
	if err := os.Rename(tmp, filepath.Join(dir, m.TraceFilename())); err != nil {
		return traceio.Manifest{}, err
	}
	if _, err := traceio.WriteEntry(dir, m); err != nil {
		return traceio.Manifest{}, err
	}
	return m, nil
}

// traceSetHash identifies a trace set by its members' content hashes.
func traceSetHash(ms []traceio.Manifest) string {
	if len(ms) == 0 {
		return "none"
	}
	h := sha256.New()
	for _, m := range ms {
		h.Write([]byte(m.TraceHash))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// inputsHash identifies a job list, and the order service-warm draws from it,
// by their canonical JSON encoding.
func inputsHash(specs []simapi.JobSpec, draws []int) string {
	b, err := json.Marshal(struct {
		Specs []simapi.JobSpec `json:"specs"`
		Draws []int            `json:"draws,omitempty"`
	}{specs, draws})
	if err != nil {
		panic(err) // JobSpec always marshals
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

package tuner

import (
	"fmt"
	"strings"

	"repro/internal/experiments"
)

// Measurement is the reduced per-evaluation result an objective scores: the
// scenario experiment's row for one (scenario, configuration, window) cell,
// plus the baseline configuration's IPC when the objective is relative. Both
// the local and the server evaluator produce exactly this struct, so a search
// can move between them without changing scores.
type Measurement struct {
	experiments.SweepRow
	// BaselineIPC is the comparison configuration's IPC for the same
	// scenario and window; zero unless the objective needs a baseline.
	BaselineIPC float64
}

// Objective is one pluggable search target: a pure scoring function over a
// Measurement, higher is worse-for-NoSQ (the tuner maximizes).
type Objective struct {
	// Name is the -objective flag value.
	Name string
	// Unit names the score's unit for reports and provenance.
	Unit string
	// Desc is a one-line description for -list-objectives.
	Desc string
	// NeedsBaseline marks relative objectives: the evaluator must also run
	// the baseline configuration and fill Measurement.BaselineIPC.
	NeedsBaseline bool
	// Score computes the objective value; it must be a pure function of
	// the measurement so cached evaluations score identically.
	Score func(m Measurement) float64
}

// per1k scales an event count to events per 1,000 committed instructions.
func per1k(events, committed uint64) float64 {
	if committed == 0 {
		return 0
	}
	return float64(events) * 1000 / float64(committed)
}

// Objectives lists the built-in search targets, in presentation order.
func Objectives() []Objective {
	return []Objective{
		{
			Name: "flush-rate",
			Unit: "flushes/1k insts",
			Desc: "pipeline flushes per 1,000 committed instructions (misprediction + verification recovery cost)",
			Score: func(m Measurement) float64 {
				return per1k(m.Flushes, m.Committed)
			},
		},
		{
			Name: "mispred",
			Unit: "mispredictions/10k loads",
			Desc: "bypass mispredictions per 10,000 committed loads (predictor accuracy attack)",
			Score: func(m Measurement) float64 {
				return m.MisPer10k
			},
		},
		{
			Name: "svw-miss",
			Unit: "re-executions/1k insts",
			Desc: "SVW filter misses forcing load re-execution, per 1,000 committed instructions",
			Score: func(m Measurement) float64 {
				return per1k(m.Reexecutions, m.Committed)
			},
		},
		{
			Name:          "ipc-gap",
			Unit:          "fraction of baseline IPC",
			Desc:          "relative IPC loss vs. the conventional store-queue baseline ((base - nosq) / base)",
			NeedsBaseline: true,
			Score: func(m Measurement) float64 {
				if m.BaselineIPC == 0 {
					return 0
				}
				return (m.BaselineIPC - m.IPC) / m.BaselineIPC
			},
		},
	}
}

// ObjectiveNames returns the built-in objective names in presentation order.
func ObjectiveNames() []string {
	objs := Objectives()
	out := make([]string, len(objs))
	for i, o := range objs {
		out[i] = o.Name
	}
	return out
}

// ObjectiveByName resolves an -objective flag value.
func ObjectiveByName(name string) (Objective, error) {
	for _, o := range Objectives() {
		if o.Name == name {
			return o, nil
		}
	}
	return Objective{}, fmt.Errorf("tuner: unknown objective %q (known: %s)",
		name, strings.Join(ObjectiveNames(), ", "))
}

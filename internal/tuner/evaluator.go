package tuner

import (
	"context"
	"fmt"

	"repro/internal/experiments"
	"repro/internal/simapi"
	"repro/internal/simclient"
	"repro/internal/workload"
)

// EvalSettings fixes the measurement cell a search scores candidates in: one
// configuration kind (plus a baseline kind for relative objectives) at one
// window size. Every candidate of a run is evaluated in the same cell, so
// scores are comparable across generations and reproducible at replay time —
// the cell is recorded in each committed entry's provenance.
type EvalSettings struct {
	// Config is the configuration kind under attack (e.g. "nosq-delay").
	Config string
	// BaselineConfig is the comparison kind for relative objectives
	// ("" = none; required when the objective NeedsBaseline).
	BaselineConfig string
	// Window is the instruction-window size.
	Window int
	// MaxInsts bounds each simulation (0 = unbounded).
	MaxInsts uint64
}

// configs returns the configuration kinds to run: the target plus the
// baseline when one is set.
func (e EvalSettings) configs() []string {
	if e.BaselineConfig == "" {
		return []string{e.Config}
	}
	return []string{e.Config, e.BaselineConfig}
}

// An Evaluator measures one scenario in one evaluation cell. Implementations
// must be deterministic in (scenario, settings) and safe for concurrent use:
// the tuner evaluates a generation's candidates in parallel and memoizes by
// scenario hash, so a non-deterministic evaluator would make search results
// depend on scheduling.
type Evaluator interface {
	Evaluate(ctx context.Context, s workload.Scenario, settings EvalSettings) (Measurement, error)
}

// LocalEvaluator runs candidates through the in-process scenario experiment —
// the same sweep engine, batch scheduler, and result keys as
// `nosq-experiments -exp scenario`. Because each evaluation runs exactly one
// scenario, its experiment scope (and therefore its pair keys in an injected
// Store) matches what a later CLI or server replay of the committed spec
// derives, so a shared store carries measurements between search and replay.
type LocalEvaluator struct {
	// Parallelism bounds each evaluation's simulation workers. The tuner
	// already runs evaluations concurrently, so 1 (the zero value is
	// normalized to 1) is the right setting almost always.
	Parallelism int
	// Store, when set, is shared across evaluations: finished pairs are
	// recorded and identical re-evaluations resume from it.
	Store experiments.ResultStore
}

// Evaluate runs the scenario experiment for s and reduces its rows to a
// Measurement.
func (l LocalEvaluator) Evaluate(ctx context.Context, s workload.Scenario, settings EvalSettings) (Measurement, error) {
	exp, err := experiments.Lookup("scenario")
	if err != nil {
		return Measurement{}, err
	}
	par := l.Parallelism
	if par == 0 {
		par = 1
	}
	rep, err := exp.Run(ctx, experiments.Options{
		Scenario:    &s,
		Configs:     settings.configs(),
		Windows:     []int{settings.Window},
		MaxInsts:    settings.MaxInsts,
		Parallelism: par,
		Store:       l.Store,
	})
	if err != nil {
		return Measurement{}, err
	}
	rows, ok := rep.Rows.([]experiments.SweepRow)
	if !ok {
		return Measurement{}, fmt.Errorf("tuner: scenario experiment returned %T, want []experiments.SweepRow", rep.Rows)
	}
	return measurementFromRows(rows, settings)
}

// measurementFromRows finds the target (and baseline) cell among the
// experiment's rows.
func measurementFromRows(rows []experiments.SweepRow, settings EvalSettings) (Measurement, error) {
	var m Measurement
	found, foundBase := false, false
	for _, r := range rows {
		if r.Window != settings.Window {
			continue
		}
		switch r.Config {
		case settings.Config:
			// A decoded report has no identity columns, so neither does a
			// measurement: both evaluators yield the same struct.
			m.SweepRow = r
			m.Benchmark, m.Suite = "", 0
			found = true
		case settings.BaselineConfig:
			m.BaselineIPC = r.IPC
			foundBase = true
		}
	}
	if !found {
		return Measurement{}, fmt.Errorf("tuner: no row for config %q at window %d", settings.Config, settings.Window)
	}
	if settings.BaselineConfig != "" && !foundBase {
		return Measurement{}, fmt.Errorf("tuner: no baseline row for config %q at window %d", settings.BaselineConfig, settings.Window)
	}
	return m, nil
}

// ServerEvaluator submits candidates as scenario jobs to a simulation server
// (optionally fronting a worker fleet) and reduces the job's JSON report to a
// Measurement. Repeated candidates ride the server's content-addressed result
// cache: the job's scenario content hash is folded into every pair key, so an
// identical spec resubmitted by any client resolves without simulating.
type ServerEvaluator struct {
	Client *simclient.Client
	// Priority orders the tuner's jobs in the server queue.
	Priority int
}

// Evaluate submits the scenario, waits for the job, and parses the report.
func (e ServerEvaluator) Evaluate(ctx context.Context, s workload.Scenario, settings EvalSettings) (Measurement, error) {
	info, err := e.Client.SubmitWait(ctx, simapi.JobSpec{
		Experiment: "scenario",
		Source:     simclient.ScenarioSource(s),
		Configs:    settings.configs(),
		Windows:    []int{settings.Window},
		MaxInsts:   settings.MaxInsts,
		Priority:   e.Priority,
	})
	if err != nil {
		return Measurement{}, fmt.Errorf("tuner: submitting %s: %w", s.Name, err)
	}
	info, err = e.Client.Wait(ctx, info.ID)
	if err != nil {
		return Measurement{}, fmt.Errorf("tuner: waiting for %s: %w", s.Name, err)
	}
	if info.State != simapi.StateDone {
		return Measurement{}, fmt.Errorf("tuner: job %s for %s ended %s: %s", info.ID, s.Name, info.State, info.Error)
	}
	raw, err := e.Client.Report(ctx, info.ID, "json")
	if err != nil {
		return Measurement{}, fmt.Errorf("tuner: fetching report for %s: %w", s.Name, err)
	}
	return measurementFromReportJSON(raw, settings)
}

// measurementFromReportJSON reduces a scenario job's JSON report document to
// a Measurement. Cached pairs emit no per-pair progress events, so the
// report document — which is identical for cached and fresh runs — is the
// only channel that always carries the measurements.
func measurementFromReportJSON(raw []byte, settings EvalSettings) (Measurement, error) {
	rows, err := experiments.DecodeSweepRows(raw)
	if err != nil {
		return Measurement{}, fmt.Errorf("tuner: %w", err)
	}
	return measurementFromRows(rows, settings)
}

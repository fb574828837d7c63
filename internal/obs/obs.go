// Package obs is the observability layer of the repository: a dependency-free
// metrics registry (atomic counters, callback gauges, fixed-bucket
// histograms) with Prometheus text exposition, a minimal span helper for
// per-job timing breakdowns, build identification, and an opt-in pprof
// listener.
//
// The registry is deliberately small — it implements exactly the subset of
// the Prometheus exposition format this service emits (counters, gauges,
// histograms, one-level label sets) and nothing else, so the simulation
// service gains scrapeable metrics without a third-party dependency. The
// exposition writer is paired with LintExposition, a conformance checker the
// tests and CI run over every emitted document.
//
// Concurrency: Counter and Histogram are safe for concurrent use (atomics
// throughout); registration is expected at startup, before the registry is
// scraped, and registration of a duplicate or invalid name panics — a
// programming error, caught by the first test that touches the package.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Metric types of the exposition format subset the registry emits.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// DefBuckets is the default histogram bucket layout for latency metrics:
// upper bounds in seconds, spanning microsecond-scale cache lookups through
// multi-second job executions. p50/p90/p99 are derivable from any scrape by
// interpolating within the cumulative bucket counts.
var DefBuckets = []float64{
	10e-6, 25e-6, 100e-6, 250e-6,
	1e-3, 2.5e-3, 10e-3, 25e-3, 100e-3, 250e-3,
	1, 2.5, 10, 30, 60,
}

// Sample is one exposition sample produced by a callback metric: a label set
// (nil for the bare metric name) and its value at scrape time.
type Sample struct {
	Labels []Label
	Value  float64
}

// Label is one name="value" pair of a sample.
type Label struct {
	Name, Value string
}

// family is one registered metric family: a name, help text, a type, and
// either concrete series (counters, histograms) or a collect callback
// evaluated at scrape time (gauges and counter views over existing state).
type family struct {
	name string
	help string
	typ  string

	// Exactly one of the following is populated.
	counters   []*Counter   // concrete counters, one per label value
	histograms []*Histogram // concrete histograms, one per label value
	collect    func() []Sample

	// labelName is the single label key of a vector family ("" = unlabeled).
	labelName string
	mu        sync.Mutex
	byLabel   map[string]int // label value → index (vector families)
}

// Registry holds metric families and renders them in the Prometheus text
// exposition format. The zero value is not usable; create with NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

func (r *Registry) register(f *family) *family {
	if !validMetricName(f.name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", f.name))
	}
	if f.labelName != "" && !validLabelName(f.labelName) {
		panic(fmt.Sprintf("obs: invalid label name %q", f.labelName))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[f.name]; dup {
		panic(fmt.Sprintf("obs: duplicate metric name %q", f.name))
	}
	r.byName[f.name] = f
	r.families = append(r.families, f)
	return f
}

// Counter is a monotonically increasing value.
type Counter struct {
	v atomic.Uint64
}

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// CounterVec is a family of counters distinguished by one label.
type CounterVec struct{ f *family }

// CounterVec registers a counter family keyed by labelName. Series are
// created on first use of each label value.
func (r *Registry) CounterVec(name, help, labelName string) *CounterVec {
	f := r.register(&family{
		name: name, help: help, typ: typeCounter,
		labelName: labelName, byLabel: make(map[string]int),
	})
	return &CounterVec{f: f}
}

// With returns the counter for the given label value, creating it on first
// use.
func (v *CounterVec) With(value string) *Counter {
	v.f.mu.Lock()
	defer v.f.mu.Unlock()
	if i, ok := v.f.byLabel[value]; ok {
		return v.f.counters[i]
	}
	c := &Counter{}
	v.f.byLabel[value] = len(v.f.counters)
	v.f.counters = append(v.f.counters, c)
	return c
}

// CounterFunc registers a counter whose value is read from fn at scrape time
// — a view over a counter that already lives elsewhere (an existing
// atomic.Uint64), avoiding double accounting.
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	r.register(&family{name: name, help: help, typ: typeCounter,
		collect: func() []Sample { return []Sample{{Value: float64(fn())}} }})
}

// GaugeFunc registers a gauge whose value is read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(&family{name: name, help: help, typ: typeGauge,
		collect: func() []Sample { return []Sample{{Value: fn()}} }})
}

// GaugeSet registers a gauge family whose full sample set (possibly labeled,
// possibly empty) is produced by fn at scrape time — the shape per-client
// gauges need, where the label population changes at runtime.
func (r *Registry) GaugeSet(name, help string, fn func() []Sample) {
	r.register(&family{name: name, help: help, typ: typeGauge, collect: fn})
}

// CounterSet is GaugeSet for counter semantics (cumulative values read from
// existing state, labeled at scrape time).
func (r *Registry) CounterSet(name, help string, fn func() []Sample) {
	r.register(&family{name: name, help: help, typ: typeCounter, collect: fn})
}

// ConstGauge registers a gauge that always reports value with the given
// labels — the `build_info{revision=...} 1` idiom.
func (r *Registry) ConstGauge(name, help string, labels []Label, value float64) {
	for _, l := range labels {
		if !validLabelName(l.Name) {
			panic(fmt.Sprintf("obs: invalid label name %q", l.Name))
		}
	}
	ls := append([]Label(nil), labels...)
	r.register(&family{name: name, help: help, typ: typeGauge,
		collect: func() []Sample { return []Sample{{Labels: ls, Value: value}} }})
}

// Histogram is a fixed-bucket histogram: per-bucket observation counts, a
// running sum, and a total count, all maintained with atomics so Observe is
// wait-free on the hot path.
type Histogram struct {
	bounds []float64       // ascending upper bounds, +Inf implicit
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

func newHistogram(buckets []float64) *Histogram {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: histogram buckets not strictly ascending at %v", buckets[i]))
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), buckets...),
		counts: make([]atomic.Uint64, len(buckets)+1),
	}
}

// Histogram registers an unlabeled histogram with the given bucket upper
// bounds (nil = DefBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	h := newHistogram(buckets)
	r.register(&family{name: name, help: help, typ: typeHistogram, histograms: []*Histogram{h}})
	return h
}

// HistogramVec is a family of histograms distinguished by one label.
type HistogramVec struct {
	f       *family
	buckets []float64
}

// HistogramVec registers a histogram family keyed by labelName.
func (r *Registry) HistogramVec(name, help, labelName string, buckets []float64) *HistogramVec {
	f := r.register(&family{
		name: name, help: help, typ: typeHistogram,
		labelName: labelName, byLabel: make(map[string]int),
	})
	return &HistogramVec{f: f, buckets: append([]float64(nil), buckets...)}
}

// With returns the histogram for the given label value, creating it on first
// use.
func (v *HistogramVec) With(value string) *Histogram {
	v.f.mu.Lock()
	defer v.f.mu.Unlock()
	if i, ok := v.f.byLabel[value]; ok {
		return v.f.histograms[i]
	}
	h := newHistogram(v.buckets)
	v.f.byLabel[value] = len(v.f.histograms)
	v.f.histograms = append(v.f.histograms, h)
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v (le semantics)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since start — the idiom for
// latency histograms: defer-friendly and monotonic-clock based.
func (h *Histogram) ObserveSince(start time.Time) {
	h.Observe(time.Since(start).Seconds())
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// WritePrometheus renders every registered family in the Prometheus text
// exposition format (version 0.0.4): families in registration order, each
// with its # HELP and # TYPE line followed by its samples.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	families := append([]*family(nil), r.families...)
	r.mu.Unlock()
	var b strings.Builder
	for _, f := range families {
		f.write(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func (f *family) write(b *strings.Builder) {
	fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.typ)
	switch {
	case f.collect != nil:
		for _, s := range f.collect() {
			writeSample(b, f.name, s.Labels, "", s.Value)
		}
	case f.typ == typeHistogram:
		f.mu.Lock()
		hs := append([]*Histogram(nil), f.histograms...)
		values := f.labelValuesLocked()
		f.mu.Unlock()
		for i, h := range hs {
			labels := f.seriesLabels(values, i)
			var cum uint64
			for bi, bound := range h.bounds {
				cum += h.counts[bi].Load()
				writeSample(b, f.name+"_bucket",
					append(labels, Label{Name: "le", Value: formatFloat(bound)}), "", float64(cum))
			}
			writeSample(b, f.name+"_bucket",
				append(labels, Label{Name: "le", Value: "+Inf"}), "", float64(h.Count()))
			writeSample(b, f.name+"_sum", labels, "", h.Sum())
			writeSample(b, f.name+"_count", labels, "", float64(h.Count()))
		}
	default:
		f.mu.Lock()
		cs := append([]*Counter(nil), f.counters...)
		values := f.labelValuesLocked()
		f.mu.Unlock()
		for i, c := range cs {
			writeSample(b, f.name, f.seriesLabels(values, i), "", float64(c.Value()))
		}
	}
}

// labelValuesLocked inverts byLabel into an index-ordered value list.
// Callers hold f.mu.
func (f *family) labelValuesLocked() []string {
	if f.byLabel == nil {
		return nil
	}
	values := make([]string, len(f.byLabel))
	for v, i := range f.byLabel {
		values[i] = v
	}
	return values
}

// seriesLabels builds the label set of series i (nil for unlabeled families).
func (f *family) seriesLabels(values []string, i int) []Label {
	if f.labelName == "" {
		return nil
	}
	return []Label{{Name: f.labelName, Value: values[i]}}
}

func writeSample(b *strings.Builder, name string, labels []Label, suffix string, v float64) {
	b.WriteString(name)
	b.WriteString(suffix)
	if len(labels) > 0 {
		b.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(l.Name)
			b.WriteString(`="`)
			b.WriteString(escapeLabelValue(l.Value))
			b.WriteByte('"')
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatFloat(v))
	b.WriteByte('\n')
}

// formatFloat renders a sample value: integers without a decimal point
// (counter idiom), everything else in shortest-roundtrip form.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabelValue applies the exposition format's label escaping: backslash,
// double quote, and newline.
func escapeLabelValue(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp escapes help text: backslash and newline (quotes are legal
// there).
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" || strings.HasPrefix(s, "__") {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

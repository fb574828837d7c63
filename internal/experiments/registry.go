package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/stats"
)

// Experiment is one named, registered experiment: a reproduction of a table
// or figure of the paper, or a free-form sweep. Implementations must be safe
// for concurrent Run calls.
type Experiment interface {
	// Name is the registry key (e.g. "table5", "fig2", "sweep").
	Name() string
	// Description is a one-line summary shown by --list.
	Description() string
	// Run executes the experiment. The context cancels in-flight simulations;
	// a cancelled run returns ctx.Err() (work finished before cancellation is
	// still recorded in the checkpoint file, if one is configured).
	Run(ctx context.Context, opts Options) (*Report, error)
}

// Report is the structured result of an experiment run: one table of typed
// rows (rendered as text, Markdown, JSON, or CSV via Render), the
// experiment-specific row structs for programmatic use, and run metadata.
type Report struct {
	// Experiment is the registry name of the experiment that produced this.
	Experiment string
	// Table holds the structured rows all renderings derive from.
	Table *stats.Table
	// Rows holds the typed row slice ([]Table5Row, []RelTimeRow, ...).
	Rows interface{}
	// Meta records run metadata (job counts, shard selection, resume counts)
	// as ordered key=value pairs.
	Meta []MetaEntry
	// Summary is the typed job accounting behind the Meta entries; the
	// simulation server reads it to attribute result-cache hits and misses.
	Summary Summary
}

// MetaEntry is one ordered key=value pair of report metadata.
type MetaEntry struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// AddMeta appends a metadata entry.
func (r *Report) AddMeta(key string, value interface{}) {
	r.Meta = append(r.Meta, MetaEntry{Key: key, Value: fmt.Sprintf("%v", value)})
}

// Document is what a report renders from: the experiment's name, its
// ordered metadata and its table. It is all a finished server job keeps of
// its report, and the server's write-ahead log stores its JSON form, in which
// the table keeps each cell's kind and value (see stats.Table.MarshalJSON).
type Document struct {
	Experiment string       `json:"experiment"`
	Meta       []MetaEntry  `json:"meta,omitempty"`
	Table      *stats.Table `json:"table"`
}

// Document returns the part of the report that renders.
func (r *Report) Document() *Document {
	return &Document{Experiment: r.Experiment, Meta: r.Meta, Table: r.Table}
}

// Render renders the report in the named format (see Document.Render).
func (r *Report) Render(format string) (string, error) {
	return r.Document().Render(format)
}

// Render renders the document in the named format: "text", "markdown",
// "json", or "csv" (see stats.Formats). Metadata is appended as
// comment-style lines to the text and Markdown renderings and embedded in
// the JSON document; the CSV rendering is rows only.
func (d *Document) Render(format string) (string, error) {
	switch format {
	case stats.FormatText, stats.FormatMarkdown:
		out, err := d.Table.Render(format)
		if err != nil {
			return "", err
		}
		if len(d.Meta) > 0 {
			var b strings.Builder
			b.WriteString(out)
			b.WriteString("\n")
			for _, m := range d.Meta {
				fmt.Fprintf(&b, "> %s: %s\n", m.Key, m.Value)
			}
			return b.String(), nil
		}
		return out, nil
	case stats.FormatJSON:
		return d.renderJSON()
	default:
		return d.Table.Render(format)
	}
}

// metaObject marshals ordered meta entries as a JSON object, preserving
// entry order (encoding/json would sort a map's keys).
type metaObject []MetaEntry

func (m metaObject) MarshalJSON() ([]byte, error) {
	var b strings.Builder
	b.WriteByte('{')
	for i, e := range m {
		if i > 0 {
			b.WriteByte(',')
		}
		k, err := json.Marshal(e.Key)
		if err != nil {
			return nil, err
		}
		v, err := json.Marshal(e.Value)
		if err != nil {
			return nil, err
		}
		b.Write(k)
		b.WriteByte(':')
		b.Write(v)
	}
	b.WriteByte('}')
	return []byte(b.String()), nil
}

func (d *Document) renderJSON() (string, error) {
	doc := struct {
		Experiment string         `json:"experiment"`
		Meta       metaObject     `json:"meta"`
		Report     stats.TableDoc `json:"report"`
	}{Experiment: d.Experiment, Meta: metaObject(d.Meta), Report: d.Table.Doc()}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return "", err
	}
	return string(b) + "\n", nil
}

// registry is the global experiment registry. Built-in experiments register
// in init; additional experiments may register at program start-up.
var registry = struct {
	sync.RWMutex
	byName map[string]Experiment
	order  []string
}{byName: make(map[string]Experiment)}

// Register adds an experiment to the registry. It panics on a duplicate or
// empty name — registration is a program start-up activity and a collision
// is a programming error.
func Register(e Experiment) {
	name := e.Name()
	if name == "" {
		panic("experiments: Register with empty name")
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.byName[name]; dup {
		panic(fmt.Sprintf("experiments: duplicate registration of %q", name))
	}
	registry.byName[name] = e
	registry.order = append(registry.order, name)
}

// Lookup returns the named experiment, or an error naming the known
// experiments.
func Lookup(name string) (Experiment, error) {
	registry.RLock()
	defer registry.RUnlock()
	if e, ok := registry.byName[name]; ok {
		return e, nil
	}
	known := append([]string(nil), registry.order...)
	sort.Strings(known)
	return nil, fmt.Errorf("experiments: unknown experiment %q (known: %s)",
		name, strings.Join(known, ", "))
}

// Names returns the registered experiment names in registration order (the
// paper's presentation order for the built-ins).
func Names() []string {
	registry.RLock()
	defer registry.RUnlock()
	return append([]string(nil), registry.order...)
}

// All returns the registered experiments in registration order.
func All() []Experiment {
	registry.RLock()
	defer registry.RUnlock()
	out := make([]Experiment, 0, len(registry.order))
	for _, name := range registry.order {
		out = append(out, registry.byName[name])
	}
	return out
}

// funcExperiment adapts a function to the Experiment interface; the built-in
// experiments are all registered through it.
type funcExperiment struct {
	name string
	desc string
	run  func(context.Context, Options) (*Report, error)
}

func (f funcExperiment) Name() string        { return f.name }
func (f funcExperiment) Description() string { return f.desc }
func (f funcExperiment) Run(ctx context.Context, opts Options) (*Report, error) {
	return f.run(ctx, opts)
}

// report wraps a table + typed rows + sweep summary into a Report.
func report(name string, tbl *stats.Table, rows interface{}, sum Summary) *Report {
	r := &Report{Experiment: name, Table: tbl, Rows: rows, Summary: sum}
	r.AddMeta("jobs", sum.Total)
	r.AddMeta("executed", sum.Executed)
	if sum.Resumed > 0 {
		r.AddMeta("resumed", sum.Resumed)
	}
	if sum.SkippedShard > 0 {
		r.AddMeta("skipped-other-shards", sum.SkippedShard)
	}
	if sum.Incomplete > 0 {
		r.AddMeta("benchmarks-dropped-incomplete", sum.Incomplete)
	}
	if sum.CorruptCheckpoint > 0 {
		r.AddMeta("checkpoint-corrupt-lines", sum.CorruptCheckpoint)
	}
	return r
}

func init() {
	for _, e := range paperExperiments {
		Register(e)
	}
	Register(funcExperiment{
		name: "sweep",
		desc: "free-form sweep over a configuration × window × benchmark grid",
		run:  Sweep,
	})
}

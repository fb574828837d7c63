package obs

import (
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterAndVec(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("flushes_total", "Flushes per config.", "config")
	c := v.With("nosq")
	c.Add(1)
	c.Add(2)
	if got := c.Value(); got != 3 {
		t.Fatalf("counter = %d, want 3", got)
	}
	v.With("sq").Add(1)
	if v.With("nosq") != c || v.With("sq").Value() != 1 {
		t.Fatalf("vec values wrong: nosq=%d sq=%d", v.With("nosq").Value(), v.With("sq").Value())
	}

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP flushes_total Flushes per config.",
		"# TYPE flushes_total counter",
		`flushes_total{config="nosq"} 3`,
		`flushes_total{config="sq"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if err := LintExposition(strings.NewReader(out)); err != nil {
		t.Fatalf("lint: %v", err)
	}
}

func TestFuncCollectors(t *testing.T) {
	r := NewRegistry()
	n := uint64(7)
	r.CounterFunc("seen_total", "Seen.", func() uint64 { return n })
	depth := 3.0
	r.GaugeFunc("queue_depth", "Depth.", func() float64 { return depth })
	r.GaugeSet("client_active", "Active per client.", func() []Sample {
		return []Sample{
			{Labels: []Label{{Name: "client", Value: "a"}}, Value: 2},
			{Labels: []Label{{Name: "client", Value: "b"}}, Value: 0},
		}
	})
	r.CounterSet("client_jobs_total", "Jobs per client.", func() []Sample {
		return []Sample{{Labels: []Label{{Name: "client", Value: "a"}}, Value: 9}}
	})
	r.ConstGauge("build_info", "Build identity.",
		[]Label{{Name: "revision", Value: "abc"}, {Name: "goversion", Value: "go1.x"}}, 1)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"seen_total 7",
		"queue_depth 3",
		`client_active{client="a"} 2`,
		`client_active{client="b"} 0`,
		`client_jobs_total{client="a"} 9`,
		`build_info{revision="abc",goversion="go1.x"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if err := LintExposition(strings.NewReader(out)); err != nil {
		t.Fatalf("lint: %v", err)
	}
	// Collectors re-read on every scrape.
	n = 8
	sb.Reset()
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "seen_total 8") {
		t.Errorf("CounterFunc not re-evaluated:\n%s", sb.String())
	}
}

func TestHistogramObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("latency_seconds", "Latency.", []float64{0.1, 0.5, 1, 5})
	for i := 0; i < 100; i++ {
		h.Observe(0.25) // all land in the (0.1, 0.5] bucket
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d, want 100", h.Count())
	}
	if math.Abs(h.Sum()-25) > 1e-9 {
		t.Fatalf("sum = %v, want 25", h.Sum())
	}

	// Observations beyond the last bound land only in +Inf.
	h2 := r.Histogram("big_seconds", "Big.", []float64{1, 2})
	h2.Observe(100)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE latency_seconds histogram",
		`latency_seconds_bucket{le="0.1"} 0`,
		`latency_seconds_bucket{le="0.5"} 100`,
		`latency_seconds_bucket{le="1"} 100`,
		`latency_seconds_bucket{le="+Inf"} 100`,
		"latency_seconds_sum 25",
		"latency_seconds_count 100",
		`big_seconds_bucket{le="2"} 0`,
		`big_seconds_bucket{le="+Inf"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if err := LintExposition(strings.NewReader(out)); err != nil {
		t.Fatalf("lint: %v", err)
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("b_seconds", "B.", []float64{1, 2})
	h.Observe(1) // le="1" is inclusive
	h.Observe(1.5)
	h.Observe(2)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`b_seconds_bucket{le="1"} 1`,
		`b_seconds_bucket{le="2"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramVec(t *testing.T) {
	r := NewRegistry()
	v := r.HistogramVec("pair_seconds", "Per-config pair latency.", "config", []float64{1, 10})
	v.With("nosq").Observe(0.5)
	v.With("nosq").Observe(5)
	v.With("sq").Observe(20)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`pair_seconds_bucket{config="nosq",le="1"} 1`,
		`pair_seconds_bucket{config="nosq",le="+Inf"} 2`,
		`pair_seconds_count{config="nosq"} 2`,
		`pair_seconds_bucket{config="sq",le="+Inf"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if err := LintExposition(strings.NewReader(out)); err != nil {
		t.Fatalf("lint: %v", err)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("c_seconds", "C.", nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count = %d, want 8000", h.Count())
	}
	if math.Abs(h.Sum()-8) > 1e-6 {
		t.Fatalf("sum = %v, want 8", h.Sum())
	}
}

func TestObserveSince(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("d_seconds", "D.", nil)
	h.ObserveSince(time.Now().Add(-50 * time.Millisecond))
	if h.Count() != 1 {
		t.Fatalf("count = %d, want 1", h.Count())
	}
	if s := h.Sum(); s < 0.04 || s > 10 {
		t.Fatalf("sum = %v, want ~0.05", s)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("esc_total", "Escaping.", "name")
	v.With(`a\b"c` + "\nd").Add(1)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	want := `esc_total{name="a\\b\"c\nd"} 1`
	if !strings.Contains(out, want) {
		t.Errorf("exposition missing %q:\n%s", want, out)
	}
	if err := LintExposition(strings.NewReader(out)); err != nil {
		t.Fatalf("lint: %v", err)
	}
}

func TestRegisterPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func(r *Registry)
	}{
		{"invalid name", func(r *Registry) { r.CounterVec("9bad", "x", "l") }},
		{"empty name", func(r *Registry) { r.Histogram("", "x", nil) }},
		{"name with dash", func(r *Registry) { r.CounterFunc("a-b", "x", func() uint64 { return 0 }) }},
		{"duplicate", func(r *Registry) {
			r.CounterVec("a_total", "x", "l")
			r.CounterFunc("a_total", "y", func() uint64 { return 0 })
		}},
		{"bad label", func(r *Registry) { r.CounterVec("v_total", "x", "__reserved") }},
		{"non-ascending buckets", func(r *Registry) { r.Histogram("h_seconds", "x", []float64{1, 1}) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic")
				}
			}()
			tc.fn(NewRegistry())
		})
	}
}

func TestLintRejects(t *testing.T) {
	cases := []struct {
		name string
		doc  string
	}{
		{"empty", ""},
		{"sample without type", "foo 1\n"},
		{"type without help", "# TYPE foo counter\nfoo 1\n"},
		{"duplicate type", "# HELP foo x\n# TYPE foo counter\nfoo 1\n# TYPE foo counter\n"},
		{"duplicate series", "# HELP foo x\n# TYPE foo counter\nfoo 1\nfoo 2\n"},
		{"duplicate label", "# HELP foo x\n# TYPE foo counter\nfoo{a=\"1\",a=\"2\"} 1\n"},
		{"bad escape", "# HELP foo x\n# TYPE foo counter\nfoo{a=\"\\t\"} 1\n"},
		{"unterminated value", "# HELP foo x\n# TYPE foo counter\nfoo{a=\"x} 1\n"},
		{"bad value", "# HELP foo x\n# TYPE foo counter\nfoo nope\n"},
		{"non-cumulative histogram", "# HELP h x\n# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n"},
		{"missing inf", "# HELP h x\n# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n"},
		{"inf count mismatch", "# HELP h x\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 1\n"},
		{"le not increasing", "# HELP h x\n# TYPE h histogram\nh_bucket{le=\"2\"} 1\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n"},
		{"suffix on counter", "# HELP foo x\n# TYPE foo counter\nfoo_bucket{le=\"1\"} 1\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := LintExposition(strings.NewReader(tc.doc)); err == nil {
				t.Fatalf("lint accepted invalid doc:\n%s", tc.doc)
			}
		})
	}
}

func TestLintAccepts(t *testing.T) {
	doc := "# HELP foo A counter.\n# TYPE foo counter\nfoo{a=\"x\"} 1\nfoo{a=\"y\"} 2\n" +
		"# HELP h A histogram.\n# TYPE h histogram\n" +
		"h_bucket{le=\"0.1\"} 0\nh_bucket{le=\"+Inf\"} 3\nh_sum 4.5\nh_count 3\n"
	if err := LintExposition(strings.NewReader(doc)); err != nil {
		t.Fatalf("lint rejected valid doc: %v", err)
	}
}

func TestSpan(t *testing.T) {
	rec := SpanAt("run", time.Now().Add(-5*time.Millisecond)).End()
	if rec.Name != "run" || rec.Duration < 5*time.Millisecond {
		t.Fatalf("bad record: %+v", rec)
	}
	start := time.Now().Add(-time.Second)
	rec = SpanAt("queued", start).EndAt(start.Add(time.Second))
	if rec.Duration != time.Second {
		t.Fatalf("EndAt duration = %v, want 1s", rec.Duration)
	}
}

func TestBuildInfo(t *testing.T) {
	b := BuildInfo()
	if b.CodeRev == "" || b.GoVersion == "" {
		t.Fatalf("incomplete build info: %+v", b)
	}
	var sb strings.Builder
	PrintVersion(&sb, "tool")
	if !strings.Contains(sb.String(), "tool revision "+b.CodeRev) {
		t.Fatalf("PrintVersion output %q", sb.String())
	}
}

func TestStartPprof(t *testing.T) {
	ln, err := StartPprof("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	resp, err := http.Get("http://" + ln.Addr().String() + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index status = %d", resp.StatusCode)
	}
}

package simstore

import (
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/experiments"
	"repro/internal/stats"
)

// FuzzRecordDecode fuzzes the WAL's replay gate. DecodeRecord sits between
// crash debris on disk and the server's recovery path, so it must never
// panic, and anything it accepts must survive the encode half of the WAL
// round trip: Append marshals a Record and a later Open decodes it, so a
// record that decodes once has to decode again from its own marshalled form
// with its identity intact. An accepted report document must render in
// every format, and render the same bytes after that round trip.
func FuzzRecordDecode(f *testing.F) {
	seeds := []Record{
		testRecord(0),
		{Type: RecStarted, JobID: "job-000001"},
		{Type: RecCompleted, JobID: "job-000001", State: "done",
			Pairs:   &PairCounts{Total: 4, Cached: 1, Executed: 3},
			Reports: map[string]string{"csv": "a,b\n1,2\n"}},
		{Type: RecCanceled, JobID: "job-000002"},
	}
	for _, rec := range seeds {
		f.Add(marshal(f, rec))
	}
	f.Add([]byte(`{"type":"submitted","job_id":"j","se`)) // torn tail
	f.Add([]byte(`{"type":"warp-drive","job_id":"j"}`))   // unknown type
	// An older log's task lines: they decode, and replay ignores them.
	f.Add([]byte(`{"type":"lease","job_id":"job-000001","task_id":"task-000001","worker_id":"worker-000001"}`))
	f.Add([]byte(`{"type":"task-done","job_id":"job-000001","task_id":"task-000001"}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte("\x00\xff garbage"))
	f.Add(marshal(f, completedWithReport()))
	f.Add(marshal(f, Record{Type: RecCompleted, JobID: "job-000003", State: "done",
		Pairs:   &PairCounts{Total: 1, Executed: 1},
		Reports: map[string]string{"text": "t\na\n-\n1\n", "markdown": "### t\n", "json": "{}\n", "csv": "a\n1\n"}}))

	f.Fuzz(func(t *testing.T, line []byte) {
		rec, err := DecodeRecord(line)
		if err != nil {
			return // rejected is always fine; panics are the bug
		}
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatalf("accepted record does not marshal: %v (input %q)", err, line)
		}
		again, err := DecodeRecord(b)
		if err != nil {
			t.Fatalf("accepted record rejects its own encoding: %v (input %q, encoded %q)", err, line, b)
		}
		if again.Type != rec.Type || again.JobID != rec.JobID || again.Seq != rec.Seq ||
			again.State != rec.State {
			t.Fatalf("record identity changed across round trip: %+v -> %+v", rec, again)
		}
		if rec.Report == nil {
			return
		}
		for _, format := range stats.Formats() {
			want, wantErr := rec.Report.Render(format)
			got, err := again.Report.Render(format)
			if got != want || fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("%s report changed across round trip: %q (%v) -> %q (%v)", format, want, wantErr, got, err)
			}
		}
	})
}

// completedWithReport is a done job's terminal record carrying its report
// document.
func completedWithReport() Record {
	tbl := stats.NewTable("Sweep | ünïcode", "benchmark", "window", "cycles", "IPC", "wide")
	tbl.AddRow("gzip", 128, uint64(5636), 0.7581618168914124, true)
	tbl.AddRow("applu", 256, uint64(1)<<60, float32(0.5260271), false)
	return Record{Type: RecCompleted, JobID: "job-000001", State: "done",
		Pairs: &PairCounts{Total: 2, Executed: 2},
		Report: &experiments.Document{Experiment: "sweep", Table: tbl,
			Meta: []experiments.MetaEntry{{Key: "jobs", Value: "2"}, {Key: "executed", Value: "2"}}}}
}

func marshal(tb testing.TB, rec Record) []byte {
	tb.Helper()
	b, err := json.Marshal(rec)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

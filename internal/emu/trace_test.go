package emu

import (
	"errors"
	"testing"

	"repro/internal/isa"
	"repro/internal/program"
)

func countedProgram(n int) *program.Program {
	b := program.NewBuilder("counted")
	r1 := isa.IntReg(1)
	for i := 0; i < n; i++ {
		b.AddImm(r1, r1, 1)
	}
	b.Halt()
	return b.MustBuild()
}

func mustRecord(t *testing.T, p *program.Program, limit uint64) *Trace {
	t.Helper()
	tr, err := RecordTrace(p, limit)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestStreamSequentialGet(t *testing.T) {
	c := mustRecord(t, countedProgram(10), 0).Cursor(0)
	for seq := uint64(1); seq <= 11; seq++ { // 10 adds + halt
		d, err := c.Get(seq)
		if err != nil {
			t.Fatalf("Get(%d): %v", seq, err)
		}
		if d.Seq != seq {
			t.Errorf("Get(%d).Seq = %d", seq, d.Seq)
		}
	}
	if _, err := c.Get(12); !errors.Is(err, ErrEndOfStream) {
		t.Errorf("expected end of stream, got %v", err)
	}
}

func TestStreamRewind(t *testing.T) {
	c := mustRecord(t, countedProgram(20), 0).Cursor(0)
	first := make([]*DynInst, 0, 10)
	for seq := uint64(1); seq <= 10; seq++ {
		d, err := c.Get(seq)
		if err != nil {
			t.Fatal(err)
		}
		first = append(first, d)
	}
	// Re-fetch the same range (as after a squash): identical records returned.
	for seq := uint64(3); seq <= 10; seq++ {
		d, err := c.Get(seq)
		if err != nil {
			t.Fatal(err)
		}
		if d != first[seq-1] {
			t.Errorf("rewound Get(%d) returned a different record", seq)
		}
	}
}

// TestStreamLimit checks both bounds on the served stream: the recording
// limit (a program that never halts stops after limit instructions) and a
// cursor's own, tighter limit over a shared recording.
func TestStreamLimit(t *testing.T) {
	b := program.NewBuilder("spin")
	b.Label("top").Jump("top")
	tr := mustRecord(t, b.MustBuild(), 50)
	if tr.Len() != 50 {
		t.Fatalf("recorded %d instructions, want 50", tr.Len())
	}
	for _, tc := range []struct{ limit, want uint64 }{{0, 50}, {20, 20}, {80, 50}} {
		c := tr.Cursor(tc.limit)
		n := uint64(0)
		for {
			if _, err := c.Get(n + 1); err != nil {
				if !errors.Is(err, ErrEndOfStream) {
					t.Fatalf("cursor limit %d: expected end of stream, got %v", tc.limit, err)
				}
				break
			}
			n++
		}
		if n != tc.want {
			t.Errorf("cursor limit %d served %d instructions, want %d", tc.limit, n, tc.want)
		}
	}
}

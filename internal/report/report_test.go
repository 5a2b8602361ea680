package report

import (
	"strings"
	"testing"

	"repro/internal/stats"
)

func TestTableText(t *testing.T) {
	tb := NewTable("demo", "load", "queue")
	tb.AddRow("1.0", "3.5")
	tb.AddRow("1.10", "22.75")
	out := tb.String()
	if !strings.Contains(out, "demo") {
		t.Fatal("title missing")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // title, header, two rows
		t.Fatalf("want 4 lines, got %d:\n%s", len(lines), out)
	}
	// Alignment: the queue column starts at the same offset everywhere.
	if strings.Index(lines[2], "3.5") != strings.Index(lines[3], "22.75") {
		t.Fatalf("columns not aligned:\n%s", out)
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow("1", "x,y") // comma must be quoted
	var b strings.Builder
	if err := tb.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	want := "a,b\n1,\"x,y\"\n"
	if b.String() != want {
		t.Fatalf("csv = %q, want %q", b.String(), want)
	}
}

func TestRowArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTable("", "a", "b").AddRow("only-one")
}

func TestEmptyColumnsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTable("bad")
}

func TestFromSeries(t *testing.T) {
	var s1, s2 stats.Series
	s1.Name, s2.Name = "classical", "quantum"
	s1.Append(1.0, 3.5, 0.1)
	s1.Append(1.1, 22.0, 0.5)
	s2.Append(1.0, 2.5, 0.1)
	s2.Append(1.1, 6.5, 0.2)
	tb := FromSeries("fig4", "load", s1, s2)
	if len(tb.Columns) != 5 {
		t.Fatalf("columns %v", tb.Columns)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("rows %d", len(tb.Rows))
	}
	if tb.Rows[1][3] != "6.5000" {
		t.Fatalf("quantum cell %q", tb.Rows[1][3])
	}
}

func TestFromSeriesMismatchedGridPanics(t *testing.T) {
	var s1, s2 stats.Series
	s1.Append(1.0, 1, 0)
	s2.Append(2.0, 1, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSeries("bad", "x", s1, s2)
}

func TestFromSeriesMismatchedLengthPanics(t *testing.T) {
	var s1, s2 stats.Series
	s1.Append(1.0, 1, 0)
	s1.Append(2.0, 1, 0)
	s2.Append(1.0, 1, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSeries("bad", "x", s1, s2)
}

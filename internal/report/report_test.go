package report

import (
	"bytes"
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tab := NewTable("Demo", "name", "value")
	tab.AddRow("alpha", "1")
	tab.AddRow("bb", "22")
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "Demo\n") {
		t.Errorf("missing title:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[1], "name") || !strings.Contains(lines[1], "value") {
		t.Errorf("header = %q", lines[1])
	}
	// Columns aligned: "alpha" and "bb" rows have value at same offset.
	off1 := strings.Index(lines[3], "1")
	off2 := strings.Index(lines[4], "22")
	if off1 != off2 {
		t.Errorf("columns not aligned:\n%s", out)
	}
}

func TestTablePadsAndTruncates(t *testing.T) {
	tab := NewTable("", "a", "b")
	tab.AddRow("only")
	tab.AddRow("x", "y", "zzz")
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "zzz") {
		t.Error("extra cell should be dropped")
	}
}

func TestTableAddRowf(t *testing.T) {
	tab := NewTable("", "k", "v")
	tab.AddRowf("e\t%.2f", 2.5)
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "2.50") {
		t.Errorf("formatted row missing:\n%s", buf.String())
	}
}

func TestTableCSV(t *testing.T) {
	tab := NewTable("", "k", "v")
	tab.AddRow("a,b", `say "hi"`)
	var buf bytes.Buffer
	if err := tab.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "k,v\n\"a,b\",\"say \"\"hi\"\"\"\n"
	if buf.String() != want {
		t.Errorf("CSV = %q, want %q", buf.String(), want)
	}
}

func TestBarChart(t *testing.T) {
	c := NewBarChart("Makespan", "s")
	c.Add("FF", 100)
	c.Add("PA-1", 82)
	c.Add("zero", 0)
	var buf bytes.Buffer
	if err := c.Render(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d:\n%s", len(lines), buf.String())
	}
	ffBars := strings.Count(lines[1], "#")
	paBars := strings.Count(lines[2], "#")
	if ffBars != 50 {
		t.Errorf("max bar = %d chars, want full width 50", ffBars)
	}
	if paBars >= ffBars || paBars == 0 {
		t.Errorf("bars not proportional: FF=%d PA=%d", ffBars, paBars)
	}
	if strings.Count(lines[3], "#") != 0 {
		t.Error("zero value should have no bar")
	}
	if !strings.Contains(lines[1], "100s") {
		t.Errorf("value annotation missing: %q", lines[1])
	}
}

func TestBarChartEmptyAndDefaults(t *testing.T) {
	c := NewBarChart("", "")
	c.Width = 0
	c.Add("x", 1)
	var buf bytes.Buffer
	if err := c.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Count(buf.String(), "#") != 50 {
		t.Errorf("default width not applied:\n%q", buf.String())
	}
}

func TestSeries(t *testing.T) {
	s := NewSeries("Fig2", "n", "avg_s")
	if err := s.Add(1, 612); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(2, 310); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(3); err == nil {
		t.Fatal("wrong arity should fail")
	}
	var buf bytes.Buffer
	if err := s.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "612") || !strings.Contains(out, "avg_s") {
		t.Errorf("series output missing data:\n%s", out)
	}
}

func TestSeriesCSV(t *testing.T) {
	s := NewSeries("", "x", "y")
	if err := s.Add(1, 2.5); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "x,y\n1,2.5\n" {
		t.Errorf("CSV = %q", buf.String())
	}
}

package experiments

import (
	"encoding/csv"
	"strings"
	"testing"
)

func TestIDsOrderedAndComplete(t *testing.T) {
	ids := IDs()
	if len(ids) != 21 {
		t.Fatalf("registry has %d experiments, want 21", len(ids))
	}
	want := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14", "E15", "E16", "E17", "E18", "E19", "E20", "E21"}
	for i, id := range want {
		if ids[i] != id {
			t.Errorf("IDs()[%d] = %s, want %s", i, ids[i], id)
		}
	}
	for _, id := range ids {
		if Title(id) == "" {
			t.Errorf("%s has no title", id)
		}
	}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := Run("E99", Options{}); err == nil {
		t.Error("expected error for unknown experiment")
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		ID:      "EX",
		Title:   "Example",
		Claim:   "claim text",
		Columns: []string{"a", "b"},
		Rows:    [][]string{{"1", "2"}, {"3", "4,5"}},
		Notes:   []string{"a note"},
	}
	md := tab.Markdown()
	for _, want := range []string{"### EX — Example", "| a | b |", "| 3 | 4,5 |", "> a note", "claim text"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}
	csv := tab.CSV()
	if !strings.Contains(csv, "a,b\n1,2\n3,\"4,5\"\n") {
		t.Errorf("csv wrong:\n%s", csv)
	}
}

// TestCSVRoundTrip feeds tables with every RFC 4180 special character
// through encoding/csv and requires the cells back verbatim.
func TestCSVRoundTrip(t *testing.T) {
	tab := &Table{
		Columns: []string{"plain", "comma, inside", `quote "q"`, "line\nbreak"},
		Rows: [][]string{
			{"1", "a,b", `say "hi"`, "x\ny"},
			{"", ",", `""`, "\n"},
		},
	}
	r := csv.NewReader(strings.NewReader(tab.CSV()))
	recs, err := r.ReadAll()
	if err != nil {
		t.Fatalf("encoding/csv rejected Table.CSV output: %v", err)
	}
	want := append([][]string{tab.Columns}, tab.Rows...)
	if len(recs) != len(want) {
		t.Fatalf("got %d records, want %d", len(recs), len(want))
	}
	for i, rec := range recs {
		for j, cell := range rec {
			// encoding/csv normalizes \r\n to \n inside quoted fields; the
			// table never emits \r so a direct compare is exact.
			if cell != want[i][j] {
				t.Errorf("record %d cell %d = %q, want %q", i, j, cell, want[i][j])
			}
		}
	}
}

// TestQuickExperimentsProduceRows smoke-tests a representative subset of
// the registry in quick mode; the full suite is exercised by
// cmd/experiments and bench_test.go.
func TestQuickExperimentsProduceRows(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow; skipped with -short")
	}
	for _, id := range []string{"E1", "E3", "E6", "E9", "E12", "E19"} {
		t.Run(id, func(t *testing.T) {
			tab, err := Run(id, Options{Quick: true, Seed: 2})
			if err != nil {
				t.Fatal(err)
			}
			if len(tab.Rows) == 0 {
				t.Fatal("no rows")
			}
			for i, row := range tab.Rows {
				if len(row) != len(tab.Columns) {
					t.Errorf("row %d has %d cells for %d columns", i, len(row), len(tab.Columns))
				}
			}
			// Any "held" column must be uniformly "yes".
			for ci, col := range tab.Columns {
				if col != "held" && col != "guarantee held" && col != "all MIS valid" {
					continue
				}
				for ri, row := range tab.Rows {
					if row[ci] != "yes" && row[ci] != "-" {
						t.Errorf("%s row %d: %s = %q, want yes", id, ri, col, row[ci])
					}
				}
			}
		})
	}
}

// TestAllExperimentsQuick runs the complete registry in quick mode: every
// runner must produce a well-formed table with no guarantee violations.
// Takes tens of seconds; skipped with -short.
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep skipped with -short")
	}
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			tab, err := Run(id, Options{Quick: true, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			if len(tab.Rows) == 0 || len(tab.Columns) == 0 {
				t.Fatal("empty table")
			}
			if tab.Claim == "" || tab.Title == "" {
				t.Error("missing claim or title")
			}
			for i, row := range tab.Rows {
				if len(row) != len(tab.Columns) {
					t.Errorf("row %d has %d cells for %d columns", i, len(row), len(tab.Columns))
				}
			}
			checkColumnsHold(t, tab)
		})
	}
}

// checkColumnsHold fails on any cell of a check column — a guarantee,
// validity or compliance verdict — other than "yes", or "-"/"n/a" where
// the check does not apply.
func checkColumnsHold(t *testing.T, tab *Table) {
	t.Helper()
	for ci, col := range tab.Columns {
		switch col {
		case "held", "guarantee held", "all MIS valid", "compliant", "MIS valid", "≥ bound", "Cor1 held", "stack ≤ w(I)", "independent", "exact":
			for ri, row := range tab.Rows {
				if c := row[ci]; c != "yes" && c != "-" && c != "n/a" {
					t.Errorf("%s row %d: %s = %q", tab.ID, ri, col, c)
				}
			}
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	if o.seed() != 1 {
		t.Errorf("default seed = %d, want 1", o.seed())
	}
	if o.trials(10, 3) != 10 {
		t.Error("full trials wrong")
	}
	o.Quick = true
	if o.trials(10, 3) != 3 {
		t.Error("quick trials wrong")
	}
	o.Trials = 7
	if o.trials(10, 3) != 7 {
		t.Error("override trials wrong")
	}
}

//go:build !race

package experiments

import (
	"bufio"
	"fmt"
	"os"
	"strings"
	"testing"
)

// committedTables parses the generated part of EXPERIMENTS.md: for every
// "### E<n> — …" section, the markdown table lines ("| … |") it holds. The
// hand-written parts above the first such section (verdict summary,
// reading guide) and every non-table line (claims, notes, verdict prose)
// are left out.
func committedTables(t *testing.T, path string) map[string][]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tables := make(map[string][]string)
	id := ""
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "### E"):
			id = strings.Fields(line)[1]
		case strings.HasPrefix(line, "#"):
			id = ""
		case id != "" && strings.HasPrefix(line, "|"):
			tables[id] = append(tables[id], line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return tables
}

// tableLines renders a fresh table's header, separator and rows exactly
// as Markdown writes them.
func tableLines(tab *Table) []string {
	var lines []string
	for _, line := range strings.Split(tab.Markdown(), "\n") {
		if strings.HasPrefix(line, "|") {
			lines = append(lines, line)
		}
	}
	return lines
}

// TestExperimentsMatchCommitted regenerates all experiments with the
// defaults of `go run ./cmd/experiments` and requires every table line to
// match EXPERIMENTS.md, so no round, message or bit count moves without
// the regenerated file being committed. It also fails on a "no" in any
// check column of the fresh run. About 12 s of wall clock on two cores;
// excluded from -race builds, where it would take minutes.
func TestExperimentsMatchCommitted(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment suite skipped with -short")
	}
	committed := committedTables(t, "../../EXPERIMENTS.md")
	for _, id := range IDs() {
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			tab, err := Run(id, Options{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			checkColumnsHold(t, tab)
			got, want := tableLines(tab), committed[id]
			if len(want) == 0 {
				t.Fatalf("EXPERIMENTS.md has no table for %s", id)
			}
			var diff strings.Builder
			for i := 0; i < max(len(got), len(want)); i++ {
				g, w := lineAt(got, i), lineAt(want, i)
				if g != w {
					fmt.Fprintf(&diff, "line %d:\n  committed: %s\n  fresh:     %s\n", i+1, w, g)
				}
			}
			if diff.Len() > 0 {
				t.Errorf("%s table differs from EXPERIMENTS.md (regenerate with `make experiments` and state the diff):\n%s", id, diff.String())
			}
		})
	}
}

func lineAt(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "(none)"
}

// Package experiments regenerates the reproduction tables E1–E13 listed in
// DESIGN.md.
//
// The paper is theory-only — it has no measured tables or figures — so the
// experiment suite validates each theorem empirically: approximation
// guarantees against exact optima or certified bounds, round-complexity
// scaling in n, Δ, W and ε, concentration behaviour against the paper's
// Facts 1–3, and the Section 7 lower-bound mechanics. EXPERIMENTS.md is
// generated from these tables.
package experiments

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Table is one experiment's output.
type Table struct {
	// ID is the experiment identifier (E1..E13).
	ID string
	// Title is a short human-readable name.
	Title string
	// Claim is the paper statement being reproduced.
	Claim string
	// Columns are the column headers.
	Columns []string
	// Rows holds the data, already formatted.
	Rows [][]string
	// Notes are free-form observations appended under the table.
	Notes []string
}

// Markdown renders the table as GitHub-flavoured markdown.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", t.ID, t.Title)
	fmt.Fprintf(&b, "**Claim (paper):** %s\n\n", t.Claim)
	b.WriteString("| " + strings.Join(t.Columns, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat("---|", len(t.Columns)) + "\n")
	for _, row := range t.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n> %s\n", n)
	}
	b.WriteString("\n")
	return b.String()
}

// CSV renders the table as RFC 4180 comma-separated values: cells
// containing a comma, quote or newline are quoted, with embedded quotes
// doubled, so column headers like "rounds, measured" survive a round-trip
// through any standard CSV reader.
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(csvEscape(c))
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// csvEscape quotes a cell per RFC 4180 when it contains a separator,
// quote or line break; plain cells pass through unchanged.
func csvEscape(s string) string {
	if !strings.ContainsAny(s, ",\"\r\n") {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

// Options configures a run of the suite.
type Options struct {
	// Seed is the root seed (default 1).
	Seed uint64
	// Quick shrinks sweeps and trial counts for CI-speed runs.
	Quick bool
	// Trials overrides the per-point trial count (0 = experiment default).
	Trials int
	// FaultRate, when positive, replaces the E18 loss-rate sweep with this
	// single message-loss probability (duplication and corruption scale
	// with it, as in the default sweep).
	FaultRate float64
	// FaultSeed overrides the adversary seed used by E18 (0 = derive from
	// Seed).
	FaultSeed uint64
}

func (o Options) seed() uint64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

func (o Options) trials(full, quick int) int {
	if o.Trials > 0 {
		return o.Trials
	}
	if o.Quick {
		return quick
	}
	return full
}

// Runner produces one experiment table.
type Runner func(Options) (*Table, error)

// entry pairs an experiment title with its runner; the registry literal
// lives in registry.go.
type entry struct {
	title string
	run   Runner
}

// IDs returns the registered experiment IDs in order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool {
		a, _ := strconv.Atoi(strings.TrimPrefix(out[i], "E"))
		b, _ := strconv.Atoi(strings.TrimPrefix(out[j], "E"))
		return a < b
	})
	return out
}

// Title returns an experiment's title ("" if unknown).
func Title(id string) string { return registry[id].title }

// Run executes one experiment by ID.
func Run(id string, opts Options) (*Table, error) {
	e, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (known: %s)", id, strings.Join(IDs(), ", "))
	}
	t, err := e.run(opts)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", id, err)
	}
	return t, nil
}

// formatting helpers shared by the experiment files.

func fi(v int) string      { return strconv.Itoa(v) }
func f64(v int64) string   { return strconv.FormatInt(v, 10) }
func ff(v float64) string  { return strconv.FormatFloat(v, 'f', 2, 64) }
func ff4(v float64) string { return strconv.FormatFloat(v, 'f', 4, 64) }
func fe(v float64) string  { return strconv.FormatFloat(v, 'e', 2, 64) }
func fbool(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

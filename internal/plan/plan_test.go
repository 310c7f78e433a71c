package plan_test

import (
	"reflect"
	"testing"

	"distmwis/internal/graph/gen"
	"distmwis/internal/plan"
	"distmwis/internal/protocol"

	// Registry side effects: the planner chooses among registered solvers.
	_ "distmwis/internal/maxis"
	_ "distmwis/internal/mis"
)

// weightedProfile is the representative weighted instance the pinning tests
// plan for: Δ=10, log W≈12, so the local-ratio phase bound (Δ+1 = 11)
// undercuts the baseline's scale bound (log W+1 = 13).
func weightedProfile(tb testing.TB) protocol.Profile {
	tb.Helper()
	g := gen.Weighted(gen.GNP(60, 0.08, 5), gen.PolyWeights(2), 5)
	return protocol.ProfileOf(g)
}

func choose(tb testing.TB, req plan.Request) plan.Decision {
	tb.Helper()
	d, err := plan.Choose(req)
	if err != nil {
		tb.Fatalf("Choose: %v", err)
	}
	return d
}

// TestChoosePins pins the planner's answer for representative
// (instance, budget) pairs. These are behavioural contracts: a cost-model
// change that moves one of them should be a conscious decision.
func TestChoosePins(t *testing.T) {
	weighted := weightedProfile(t)
	unit := protocol.ProfileOf(gen.GNP(60, 0.08, 5))
	cases := []struct {
		name string
		req  plan.Request
		want string
		fits bool
	}{
		{
			// Unlimited budget on a weighted instance with Δ < log W: the
			// planner prefers localratio (Δ-approx, Δ+1 phases) over the
			// baseline's log W scales on the work tie-break.
			name: "weighted unlimited",
			req:  plan.Request{Profile: weighted},
			want: "localratio", fits: true,
		},
		{
			// A tight budget only the few-round race fits: its 1.4·(Δ+1)
			// inflated score still beats the other cheap tiers.
			name: "weighted tight",
			req:  plan.Request{Profile: weighted, Budget: plan.Budget{WorkUnits: 50_000}},
			want: "bhr-fewround", fits: true,
		},
		{
			// Tighter still: only the one-round races fit, and the weighted
			// race (1.8) outranks the uniform ranking race (2.0).
			name: "weighted one-round",
			req:  plan.Request{Profile: weighted, Budget: plan.Budget{WorkUnits: 5_000}},
			want: "bhr-fewround", fits: true,
		},
		{
			// A budget nothing fits: the cheapest candidate answers anyway,
			// marked over budget — a guaranteed answer now beats none.
			name: "weighted impossible",
			req:  plan.Request{Profile: weighted, Budget: plan.Budget{WorkUnits: 10}},
			want: "bhr-oneround", fits: false,
		},
		{
			// Deterministic-only planning excludes every randomised solver;
			// localratio is the best deterministic Δ-family member.
			name: "weighted deterministic",
			req:  plan.Request{Profile: weighted, RequireDeterministic: true},
			want: "localratio", fits: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := choose(t, tc.req)
			if d.Alg != tc.want || d.Fits != tc.fits {
				t.Errorf("got %s (fits=%t), want %s (fits=%t)\ndecision: %s",
					d.Alg, d.Fits, tc.want, tc.fits, d)
			}
		})
	}
	_ = unit
}

func TestChooseUnitWeightsAdmitsRanking(t *testing.T) {
	// Unit-weight instances unlock the UnitWeightsOnly solvers; they must
	// never be chosen for weighted ones.
	unit := protocol.ProfileOf(gen.GNP(60, 0.08, 5))
	if !unit.UnitWeights {
		t.Fatal("expected a unit-weight profile")
	}
	seen := false
	for _, s := range protocol.Solvers() {
		if s.Meta().UnitWeightsOnly {
			seen = true
		}
	}
	if !seen {
		t.Skip("no unit-weights-only solver registered")
	}
	weighted := weightedProfile(t)
	for _, budget := range []int64{0, 5_000, 50_000, 1 << 30} {
		d := choose(t, plan.Request{Profile: weighted, Budget: plan.Budget{WorkUnits: budget}})
		if sv, err := protocol.SolverByName(d.Alg); err != nil {
			t.Fatalf("chose unregistered solver %q", d.Alg)
		} else if sv.Meta().UnitWeightsOnly {
			t.Errorf("budget %d: chose unit-weights-only %s for a weighted profile", budget, d.Alg)
		}
	}
}

func TestChooseDeterministic(t *testing.T) {
	req := plan.Request{Profile: weightedProfile(t), Budget: plan.Budget{WorkUnits: 123_456}}
	first := choose(t, req)
	for i := 0; i < 5; i++ {
		if got := choose(t, req); !reflect.DeepEqual(got, first) {
			t.Fatalf("Choose is not a pure function: %+v then %+v", first, got)
		}
	}
}

func TestForDeadline(t *testing.T) {
	if b := plan.ForDeadline(0, 0); b.WorkUnits != 0 {
		t.Errorf("zero deadline should be unlimited, got %d", b.WorkUnits)
	}
	if b := plan.ForDeadline(-5, 0); b.WorkUnits != 0 {
		t.Errorf("negative deadline should be unlimited, got %d", b.WorkUnits)
	}
	if b := plan.ForDeadline(10, 0); b.WorkUnits != 10*plan.DefaultOpsPerMS {
		t.Errorf("default rate: got %d work units", b.WorkUnits)
	}
	if b := plan.ForDeadline(10, 1000); b.WorkUnits != 10_000 {
		t.Errorf("explicit rate: got %d work units", b.WorkUnits)
	}
}

func TestDecisionString(t *testing.T) {
	d := choose(t, plan.Request{Profile: weightedProfile(t)})
	s := d.String()
	if s == "" || d.Ratio == "" {
		t.Errorf("decision renders empty: %q (ratio %q)", s, d.Ratio)
	}
}

package repair

import (
	"slices"
	"sync"
	"testing"
	"time"

	"distmwis/internal/graph"
)

func pathGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 0; v < n-1; v++ {
		b.AddEdge(v, v+1)
	}
	for v := 0; v < n; v++ {
		b.SetWeight(v, int64(1+(v*7)%13))
	}
	return b.MustBuild()
}

// collector records publishes in order, safely across goroutines.
type collector struct {
	mu   sync.Mutex
	pubs []Answer
	keys []string
}

func (c *collector) publish(key string, a Answer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.keys = append(c.keys, key)
	c.pubs = append(c.pubs, a)
}

// manualTier builds a tier whose background loop effectively never ticks
// (hour-long interval), so tests drive it deterministically with Step.
func manualTier(t *testing.T, opts Options) *Tier {
	t.Helper()
	opts.Interval = time.Hour
	tier := New(opts)
	t.Cleanup(tier.Stop)
	return tier
}

// Driving a task through Step by hand: a conflicted degraded set must be
// healed, greedily improved to a maximal independent set, then replaced by
// the Full callback's answer — publishes in that order, both independent.
func TestTierUpgradesThroughPhases(t *testing.T) {
	g := pathGraph(40)
	start := make([]bool, g.N())
	start[3], start[4] = true, true // conflict on edge {3,4}
	var col collector
	tier := manualTier(t, Options{Budget: 1 << 20, Publish: col.publish})

	fullSet := make([]bool, g.N())
	for v := 0; v < g.N(); v += 2 {
		fullSet[v] = true
	}
	task := Task{
		Key:   "k1",
		G:     g,
		Start: start,
		Full: func() ([]bool, int64, error) {
			return fullSet, g.SetWeight(fullSet), nil
		},
	}
	if !tier.Enqueue(task) {
		t.Fatal("enqueue rejected")
	}
	if !tier.Step() {
		t.Fatal("first step found no work")
	}
	if !tier.Step() {
		t.Fatal("second step (full solve) found no work")
	}
	if tier.Step() {
		t.Fatal("queue should be drained after two steps")
	}

	col.mu.Lock()
	defer col.mu.Unlock()
	if len(col.pubs) != 2 {
		t.Fatalf("got %d publishes, want 2 (improved, full)", len(col.pubs))
	}
	improved, full := col.pubs[0], col.pubs[1]
	if improved.Quality != QualityImproved || full.Quality != QualityFull {
		t.Fatalf("qualities = %q, %q", improved.Quality, full.Quality)
	}
	if !g.IsIndependentSet(improved.Set) {
		t.Fatal("improved answer is not independent")
	}
	if improved.Weight != g.SetWeight(improved.Set) {
		t.Fatal("improved weight mislabeled")
	}
	// One full greedy pass reaches maximality: no feasible node remains.
	for v := 0; v < g.N(); v++ {
		if improved.Set[v] {
			continue
		}
		feasible := true
		for _, u := range g.Neighbors(v) {
			if improved.Set[u] {
				feasible = false
				break
			}
		}
		if feasible {
			t.Fatalf("improved answer not maximal: node %d admittable", v)
		}
	}
	if col.keys[0] != "k1" || col.keys[1] != "k1" {
		t.Fatalf("keys = %v", col.keys)
	}
	if st := tier.Stats(); st.Improved != 1 || st.Upgraded != 1 || st.QueueDepth != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// A tick's budget bounds work: with Budget 8 on a 40-node graph the greedy
// pass must span multiple steps before the improved publish appears.
func TestTierBudgetBoundsWorkPerTick(t *testing.T) {
	g := pathGraph(40)
	var col collector
	tier := manualTier(t, Options{Budget: 8, Publish: col.publish})
	tier.Enqueue(Task{Key: "k", G: g, Start: make([]bool, g.N())})

	steps := 0
	for tier.Step() {
		steps++
		if steps > 100 {
			t.Fatal("task never completed")
		}
	}
	if steps < 40/8 {
		t.Fatalf("task finished in %d steps; budget 8 on 40 nodes needs ≥5", steps)
	}
	col.mu.Lock()
	defer col.mu.Unlock()
	if len(col.pubs) != 1 || col.pubs[0].Quality != QualityImproved {
		t.Fatalf("publishes = %+v, want one improved (nil Full)", col.pubs)
	}
}

// Enqueue dedups by key, bounds depth, rejects malformed tasks, and
// refuses work after Stop; stats account for each outcome.
func TestTierEnqueueDedupAndBounds(t *testing.T) {
	g := pathGraph(4)
	tier := manualTier(t, Options{QueueDepth: 2})
	mk := func(key string) Task { return Task{Key: key, G: g, Start: make([]bool, g.N())} }

	if tier.Enqueue(Task{Key: "bad", G: g, Start: make([]bool, 2)}) {
		t.Fatal("mis-sized Start must be rejected")
	}
	if !tier.Enqueue(mk("a")) || !tier.Enqueue(mk("b")) {
		t.Fatal("first two enqueues must land")
	}
	if tier.Enqueue(mk("a")) {
		t.Fatal("duplicate key must dedup")
	}
	if tier.Enqueue(mk("c")) {
		t.Fatal("queue depth 2 must drop the third key")
	}
	st := tier.Stats()
	if st.Enqueued != 2 || st.Deduped != 1 || st.Dropped != 1 || st.QueueDepth != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st.OldestWaitSeconds < 0 {
		t.Fatalf("staleness negative: %v", st.OldestWaitSeconds)
	}
	tier.Stop()
	if tier.Enqueue(mk("z")) {
		t.Fatal("stopped tier must reject enqueues")
	}
}

// The background loop runs end to end without manual stepping, and Stop
// joins it cleanly and idempotently.
func TestTierBackgroundLoop(t *testing.T) {
	g := pathGraph(30)
	var col collector
	tier := New(Options{Interval: time.Millisecond, Publish: col.publish})
	tier.Enqueue(Task{Key: "bg", G: g, Start: make([]bool, g.N())})
	deadline := time.Now().Add(5 * time.Second)
	for {
		col.mu.Lock()
		n := len(col.pubs)
		col.mu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background loop never published")
		}
		time.Sleep(time.Millisecond)
	}
	tier.Stop()
	tier.Stop() // idempotent
	if st := tier.Stats(); st.Improved != 1 {
		t.Fatalf("stats = %+v, want 1 improved", st)
	}
}

// A failing Full callback ends the task at improved quality rather than
// wedging the queue.
func TestTierFullFailureKeepsImproved(t *testing.T) {
	g := pathGraph(10)
	var col collector
	tier := manualTier(t, Options{Publish: col.publish})
	tier.Enqueue(Task{
		Key: "f", G: g, Start: make([]bool, g.N()),
		Full: func() ([]bool, int64, error) { return nil, 0, errFake },
	})
	for tier.Step() {
	}
	col.mu.Lock()
	defer col.mu.Unlock()
	if len(col.pubs) != 1 || col.pubs[0].Quality != QualityImproved {
		t.Fatalf("publishes = %+v", col.pubs)
	}
	if st := tier.Stats(); st.QueueDepth != 0 {
		t.Fatalf("failed task stuck in queue: %+v", st)
	}
}

type fakeErr struct{}

func (fakeErr) Error() string { return "solver exploded" }

var errFake = fakeErr{}

// A task whose answer is already full is swept by the next Step with no
// Full or Publish call; the tasks behind and around it keep their
// FIFO order, and the published answers carry their task's graph hash.
func TestTierSettlesDoneTasks(t *testing.T) {
	g := pathGraph(10)
	var col collector
	tier := manualTier(t, Options{Budget: 1 << 20, Publish: col.publish})
	var mu sync.Mutex
	full := map[string]bool{}
	calls := map[string]int{}
	mk := func(key string) Task {
		return Task{
			Key: key, G: g, GraphHash: "h-" + key, Start: make([]bool, g.N()),
			Done: func() bool {
				mu.Lock()
				defer mu.Unlock()
				return full[key]
			},
			FullAlg: "alg",
			Full: func() ([]bool, int64, error) {
				mu.Lock()
				calls[key]++
				mu.Unlock()
				return make([]bool, g.N()), 0, nil
			},
		}
	}
	for _, key := range []string{"a", "b", "c", "d"} {
		tier.Enqueue(mk(key))
	}
	mu.Lock()
	full["a"], full["c"] = true, true
	mu.Unlock()

	for tier.Step() {
	}
	if calls["a"] != 0 || calls["c"] != 0 {
		t.Fatalf("settled tasks did work: %v", calls)
	}
	if calls["b"] != 1 || calls["d"] != 1 {
		t.Fatalf("live tasks: %v, want one Full call each", calls)
	}
	col.mu.Lock()
	// Improved then full for each live task, in queue order.
	if want := []string{"b", "b", "d", "d"}; !slices.Equal(col.keys, want) {
		t.Errorf("publish keys %v, want %v", col.keys, want)
	}
	for i, a := range col.pubs {
		if a.GraphHash != "h-"+col.keys[i] {
			t.Errorf("publish %d for %s carries graph hash %q", i, col.keys[i], a.GraphHash)
		}
	}
	col.mu.Unlock()
	if st := tier.Stats(); st.Settled != 2 || st.Improved != 2 || st.Upgraded != 2 || st.QueueDepth != 0 {
		t.Fatalf("stats = %+v, want 2 settled, 2 improved, 2 upgraded", st)
	}
	// A settled key may be queued again: it left the pending set.
	if !tier.Enqueue(mk("a")) {
		t.Fatal("re-enqueue of a settled key rejected")
	}
}

// Step reports no work when the queue held only settled tasks, and a
// settled head task mid-way through its phases is swept too.
func TestTierStepFalseWhenOnlySettled(t *testing.T) {
	g := pathGraph(40)
	var col collector
	tier := manualTier(t, Options{Budget: 8, Publish: col.publish})
	done := false
	for _, key := range []string{"x", "y"} {
		tier.Enqueue(Task{Key: key, G: g, Start: make([]bool, g.N()), Done: func() bool { return done }})
	}
	if !tier.Step() {
		t.Fatal("first step found no work")
	}
	done = true
	if tier.Step() {
		t.Fatal("Step reported work with only settled tasks queued")
	}
	if st := tier.Stats(); st.Settled != 2 || st.QueueDepth != 0 || st.Improved != 0 {
		t.Fatalf("stats = %+v, want both tasks settled before any publish", st)
	}
	if len(col.pubs) != 0 {
		t.Fatalf("settled tasks published %+v", col.pubs)
	}
}

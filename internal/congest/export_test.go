package congest

// UseHeapSlots makes every run started until restore is called deliver
// through heap slots, the LOCAL model's pointer slots, whatever its
// bandwidth, so tests can check that both slot kinds deliver the same
// executions. Tests that call it must not run in parallel with others.
func UseHeapSlots() (restore func()) {
	forceHeapSlots = true
	return func() { forceHeapSlots = false }
}

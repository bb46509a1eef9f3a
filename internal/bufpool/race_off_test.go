//go:build !race

package bufpool

// raceEnabled reports whether the race detector is instrumenting this
// build; the allocation guard skips under it because its shadow-memory
// bookkeeping allocates on paths the production build does not.
const raceEnabled = false

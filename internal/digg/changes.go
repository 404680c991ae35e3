package digg

import "sort"

// changeLogMax bounds the entries a ChangeLog retains. A serving layer
// republishes after every write burst, so it asks about the last few
// hundred changes; a reader that falls further behind than this gets a
// gap and rebuilds from scratch.
const changeLogMax = 1 << 14

// ChangeLog records which stories changed at which generation, so a
// serving layer can refresh exactly the stories a write touched
// instead of rescanning every story. It keeps a bounded window of the
// newest entries and reports a gap for queries older than the window.
// The zero value covers every change after generation 0.
//
// A ChangeLog is not synchronized: it shares the owning store's
// single-writer discipline.
type ChangeLog struct {
	base uint64 // every change after generation base is retained
	gens []uint64
	ids  []StoryID
}

// Record notes that story id changed at generation gen. Generations
// must be recorded in non-decreasing order.
func (l *ChangeLog) Record(gen uint64, id StoryID) {
	if len(l.ids) == changeLogMax {
		// Drop the older half in place, so a warmed-up log appends
		// without allocating.
		half := changeLogMax / 2
		l.base = l.gens[half-1]
		l.gens = l.gens[:copy(l.gens, l.gens[half:])]
		l.ids = l.ids[:copy(l.ids, l.ids[half:])]
	}
	l.gens = append(l.gens, gen)
	l.ids = append(l.ids, id)
}

// Reset forgets every entry: the log covers only changes after gen
// from now on. Stores call it when state changes in a way the log
// cannot describe (stories removed, state replaced).
func (l *ChangeLog) Reset(gen uint64) {
	l.base = gen
	l.gens = l.gens[:0]
	l.ids = l.ids[:0]
}

// Since appends to dst the IDs of stories that changed after
// generation gen, oldest change first and possibly with repeats. It
// reports false, appending nothing, when the log no longer reaches
// back to gen.
func (l *ChangeLog) Since(gen uint64, dst []StoryID) ([]StoryID, bool) {
	if gen < l.base {
		return dst, false
	}
	i := sort.Search(len(l.gens), func(i int) bool { return l.gens[i] > gen })
	return append(dst, l.ids[i:]...), true
}

// ChangedSince appends to dst the IDs of stories whose version moved
// after generation gen (see Store.ChangedSince).
func (p *Platform) ChangedSince(gen uint64, dst []StoryID) ([]StoryID, bool) {
	return p.changes.Since(gen, dst)
}

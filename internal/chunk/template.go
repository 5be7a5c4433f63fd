package chunk

import (
	"bytes"
	"hash/maphash"
	"math/bits"
	"slices"

	"rstore/internal/codec"
)

// Most representatives of a segment spell the same run heads: §5.1's
// documents keep their field names at the same offsets, so their lists copy
// the same stretches of the anchor and differ only where a literal happened to
// match it. A segment states such heads once, as its template (litCode), and a
// value that takes them stores an empty list of its own and its literals.

// A list is a value and its own run list, as codeRuns made it against the
// anchor: its heads, how many of the value's bytes they copy and how many of
// those are its tail copy; and whether the value takes the segment's template
// instead.
type list struct {
	value        []byte
	heads        []byte
	copied, tail int
	uses         bool
}

// chooseTemplate picks a segment's template among lists, whose literals hist
// counts: of the few that most values spell, tried from the most spelled on,
// the first that every value uses, or else the one the most use — of equals,
// the one that spares more bytes, then the more spelled. A list fits a value
// when its runs add up to the value's length and every byte it copies is the
// anchor's, and a value it fits uses it when that costs fewer bytes than the
// value's own list, a literal counted a byte — so a value whose own list
// copies a few bytes more, a literal that matched the anchor beside a copy,
// uses it too. It sets uses on the lists of the values that take the template
// and has hist count the literals they state by it instead of their own. It
// returns nil, and changes neither, unless the users spare more bytes than
// the template takes, and unless it copies two bytes or more: else, a literal
// a byte, a value that used it would be no shorter than raw. The template is
// weighed in w, whose scratch the weighing before left.
func (w *weighing) chooseTemplate(lists []list, hist *litCounts) []byte {
	if len(lists) < 2 || !slices.ContainsFunc(lists, func(l list) bool { return l.copied >= 2 }) {
		return nil // no list copies two bytes, so none can be the template
	}
	w.lists = lists
	w.group()
	// The most spelled first: most often every value uses it, and no other
	// is tried.
	t := &w.t
	best, users, spared := -1, 0, 0
	for _, c := range w.mostSpelled() {
		if c < 0 || w.groups[c].n < 2 || users == len(lists) {
			break
		}
		first := w.groups[c].first
		t.of(lists[first])
		if u, s := w.weigh(t); u > users || u == users && s > spared {
			best, users, spared = first, u, s
			w.fits, w.bestFits = w.bestFits, w.fits
			w.moves, w.bestMoves = w.bestMoves, w.moves
		}
	}
	if best < 0 || spared <= 0 {
		return nil
	}
	from := 0
	for _, f := range w.bestFits {
		for i := w.groups[f.group].first; i >= 0; i = int(w.next[i]) {
			lists[i].uses = true
			for _, m := range w.bestMoves[from:f.movesEnd] {
				hist.add(lists[i].value[m.from:m.to])
			}
		}
		from = f.movesEnd
	}
	return lists[best].heads
}

// untailOwn has each of lists that keeps a list of its own give its tail copy
// back (untail) and hist count the literals that makes, so the code is chosen
// from the literals written. The heads it rewrites are appended to untailed,
// one list after the other, which it returns: the lists' heads point into it.
func untailOwn(untailed []byte, lists []list, hist *litCounts) []byte {
	for i := range lists {
		if l := &lists[i]; !l.uses && l.tail > 0 {
			at := len(untailed)
			untailed = untail(untailed, l.heads, l.value, l.tail, hist)
			l.heads = untailed[at:len(untailed):len(untailed)]
		}
	}
	return untailed
}

// A weighing is what chooseTemplate weighs templates over: the lists, grouped
// by their heads, the template being weighed, and the groups it, and the best
// so far, fit. Its slices are kept from one segment's weighing to the next.
type weighing struct {
	lists  []list
	groups []group
	links  []int32 // next, then group's hash slots
	next   []int32 // the next list of the same heads, −1 after the last
	t      template

	fits, bestFits   []fit
	moves, bestMoves []move // of each fit in turn
}

// A group is the lists of the same heads: first, then as next links them, n
// in all.
type group struct {
	first, last, n int
	hash           uint64
}

// A fit is a group a template fits and where its moves end.
type fit struct{ group, movesEnd int }

// headsSeed seeds the hash group buckets lists by. Lists are grouped by their
// bytes, so what the buckets are changes no group.
var headsSeed = maphash.MakeSeed()

// group groups the lists by their heads, in the order of their first lists.
func (w *weighing) group() {
	n := len(w.lists)
	size := n + 1<<bits.Len(uint(2*n))
	w.links = slices.Grow(w.links[:0], size)[:size]
	w.next = w.links[:n]
	slots := w.links[n:] // a group's index and 1; 0: empty
	clear(slots)
	mask := uint64(len(slots) - 1)
	w.groups = w.groups[:0]
	for i, l := range w.lists {
		w.next[i] = -1
		h := maphash.Bytes(headsSeed, l.heads)
		for at := h & mask; ; at = (at + 1) & mask {
			if slots[at] == 0 {
				slots[at] = int32(len(w.groups) + 1)
				w.groups = append(w.groups, group{i, i, 1, h})
				break
			}
			if g := &w.groups[slots[at]-1]; g.hash == h && bytes.Equal(w.lists[g.first].heads, l.heads) {
				w.next[g.last], g.last, g.n = int32(i), i, g.n+1
				break
			}
		}
	}
	// Room for what two templates fit: most often a move or two a group.
	w.fits, w.bestFits = slices.Grow(w.fits[:0], len(w.groups)), slices.Grow(w.bestFits[:0], len(w.groups))
	w.moves, w.bestMoves = slices.Grow(w.moves[:0], 4*len(w.groups)), slices.Grow(w.bestMoves[:0], 4*len(w.groups))
}

// mostSpelled returns the four largest groups, largest first, the first
// list's of equals; −1 for none.
func (w *weighing) mostSpelled() [4]int {
	top := [4]int{-1, -1, -1, -1}
	for gi, g := range w.groups {
		for k, c := range top {
			if c < 0 || g.n > w.groups[c].n { // groups come in the order of their first lists
				copy(top[k+1:], top[k:len(top)-1])
				top[k] = gi
				break
			}
		}
	}
	return top
}

// weigh counts the values that would use t and the bytes they would spare
// less what t takes, walking each group's heads once, and notes the groups t
// fits in w.fits and w.moves. A template that copies fewer than two bytes has
// no users.
func (w *weighing) weigh(t *template) (users, spared int) {
	w.fits, w.moves = w.fits[:0], w.moves[:0]
	if t.copied < 2 {
		return 0, 0
	}
	spared = -codec.BytesLen(len(t.heads))
	for gi, g := range w.groups {
		// Its own list's heads and their length, less the one byte of an
		// empty list, less the literals the template has it spell out
		// besides.
		own := &w.lists[g.first]
		save := codec.BytesLen(len(own.heads)) - 1 - (own.copied - t.copied)
		if save <= 0 || len(own.value) != t.size || !t.restate(own.heads) {
			continue
		}
		users, spared = users+g.n, spared+g.n*save
		w.moves = append(w.moves, t.moves...)
		w.fits = append(w.fits, fit{gi, len(w.moves)})
	}
	return users, spared
}

// A template is a list as chooseTemplate weighs it: its heads, the value
// length they add up to, how many bytes they copy, and at each byte of the
// heads the run that byte is in.
type template struct {
	heads        []byte
	size, copied int
	runAt        []runStart // one more than heads: the end
	moves        []move     // restate's, of one list
}

// A runStart is where a run's head starts in its list, and where the run
// starts in the value.
type runStart struct{ head, pos int }

// A move is a stretch of a value that a template states as literals where its
// own list copies.
type move struct{ from, to int }

// of makes t the template of l.
func (t *template) of(l list) {
	t.heads, t.size, t.copied = l.heads, len(l.value), l.copied
	t.runAt = slices.Grow(t.runAt[:0], len(l.heads)+1)
	for at, pos := 0, 0; at < len(l.heads); {
		n, lit, head := runHead(l.heads[at:])
		for range head {
			t.runAt = append(t.runAt, runStart{at, pos})
		}
		at, pos = at+head, pos+int(n)+int(lit)
	}
	t.runAt = append(t.runAt, runStart{len(l.heads), t.size})
}

// restate reports whether t fits the value whose own list is own, of t.size
// bytes, and lists in t.moves the stretches where own copies and t does not.
// A list codeRuns made copies every stretch of four bytes or more that its
// value shares with the anchor at the same offset, from offset 0 as far as the
// two agree, and, where its literals run on to the value's end inside the
// anchor, the bytes the value ends with as far back as they are the anchor's
// — its tail; t's copies are such stretches of another value of t.size bytes,
// its tail included; so where t copies and own does not, the value is not the
// anchor's and t does not fit. Where the two lists' heads are the same bytes,
// they are skipped at once.
func (t *template) restate(own []byte) bool {
	t.moves = t.moves[:0]
	tc, oc := cursor{heads: t.heads}, cursor{heads: own}
	for p := 0; p < t.size; {
		if p == tc.end && p == oc.end {
			// Both at a run's start: past the heads they share, from the
			// start of the run the first that differs is in.
			d := matchLen(tc.heads, oc.heads)
			if d == len(tc.heads) && d == len(oc.heads) {
				return true
			}
			r := t.runAt[len(t.heads)-len(tc.heads)+d]
			skip := r.head - (len(t.heads) - len(tc.heads))
			tc.heads, oc.heads = tc.heads[skip:], oc.heads[skip:]
			p, tc.end, oc.end = r.pos, r.pos, r.pos
			if len(tc.heads) == 0 || len(oc.heads) == 0 {
				return false // a list that ends short of the value
			}
		}
		if p == tc.end {
			tc.next()
		}
		if p == oc.end {
			oc.next()
		}
		tcopy, ocopy := p < tc.copyEnd, p < oc.copyEnd
		stop := min(tc.edge(p), oc.edge(p))
		switch {
		case tcopy && !ocopy:
			return false
		case ocopy && !tcopy:
			t.moves = append(t.moves, move{p, stop})
		}
		p = stop
	}
	return true
}

// A cursor is a place in a run list: at the run that copies up to copyEnd and
// ends at end, the heads after it still to come.
type cursor struct {
	heads        []byte
	copyEnd, end int
}

// next moves c on to its next run.
func (c *cursor) next() {
	n, lit, head := runHead(c.heads)
	c.heads = c.heads[head:]
	c.copyEnd = c.end + int(n)
	c.end = c.copyEnd + int(lit)
}

// edge is where c's run stops copying, or stops, whichever is next after p.
func (c *cursor) edge(p int) int {
	if p < c.copyEnd {
		return c.copyEnd
	}
	return c.end
}

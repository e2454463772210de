// Package kbest owns the one ranking rule every candidate list in the
// pipeline shares — higher score first, ties to the lower id — and the
// row layout those lists are stored in. The exact blocked top-k scan,
// the ANN re-rank and refinement's token selection all select through
// Heap, and the LISI transform, the integration merge and refinement
// re-order their candidate rows with SortRow, so no package can drift
// from the rule.
//
// The rule is a strict total order on (score, id) pairs with non-NaN
// scores, so the k best of a stream form one well-defined set whatever
// the arrival order, and a bounded heap returns exactly the first k
// entries of a full sort, ties included.
package kbest

import (
	"math"
	"sort"
)

// Lists holds, for every query, its k best ids and their scores, best
// first. All rows are carved from two backing arrays, so a whole
// structure costs two allocations plus headers.
type Lists struct {
	K int
	// Idx[i] lists the ids of query i, best first.
	Idx [][]int32
	// Score[i] holds the matching scores.
	Score [][]float64
}

// NewLists returns n rows of exactly k zeroed entries each, carved from
// two backing arrays.
func NewLists(n, k int) *Lists {
	l := &Lists{K: k, Idx: make([][]int32, n), Score: make([][]float64, n)}
	idx := make([]int32, n*k)
	score := make([]float64, n*k)
	for i := 0; i < n; i++ {
		l.Idx[i] = idx[i*k : i*k+k : i*k+k]
		l.Score[i] = score[i*k : i*k+k : i*k+k]
	}
	return l
}

// Heap selects the k best (id, score) pairs of a stream: a k-slot
// min-heap with the worst kept pair at the root, where worse means a
// smaller score or, on equal scores, a larger id. A Heap is reusable
// across rows through Reset and is not safe for concurrent use.
type Heap struct {
	idx   []int32
	score []float64
	k     int
	// full mirrors len(idx) == k, and rootJ/rootV mirror the root pair
	// once full, so Offer's rejection test reads no slice and stays
	// small enough to inline into the callers' scan loops.
	full  bool
	rootJ int32
	rootV float64
}

// Reset empties the heap and sets its capacity to k ≥ 0.
func (h *Heap) Reset(k int) {
	h.idx, h.score, h.k = h.idx[:0], h.score[:0], k
	// With k = 0 the heap starts full; a NaN root compares false both
	// ways, so every offer is rejected.
	h.full = k == 0
	h.rootJ, h.rootV = 0, math.NaN()
}

// Offer considers one pair. A full heap admits it only when it is
// strictly better than the worst kept pair; on a score tie the lower id
// wins. A NaN score never displaces a kept pair.
func (h *Heap) Offer(id int32, score float64) {
	if !h.full || score > h.rootV || (score == h.rootV && id < h.rootJ) {
		h.admit(id, score)
	}
}

// admit inserts a pair Offer accepted, evicting the root when full.
func (h *Heap) admit(id int32, score float64) {
	if !h.full {
		h.idx = append(h.idx, id)
		h.score = append(h.score, score)
		h.siftUp(len(h.idx) - 1)
		if len(h.idx) < h.k {
			return
		}
		h.full = true
	} else {
		h.idx[0], h.score[0] = id, score
		h.siftDown(0, h.k)
	}
	h.rootJ, h.rootV = h.idx[0], h.score[0]
}

// Members returns the kept ids in heap order, for callers that need
// only the selected set. The slice is valid until the next Reset.
func (h *Heap) Members() []int32 { return h.idx }

// Drain writes the kept pairs best first into idx and score, which must
// hold at least as many entries as were kept. The heap must be Reset
// before its next use.
func (h *Heap) Drain(idx []int32, score []float64) {
	n := len(h.idx)
	for p := n - 1; p >= 0; p-- {
		idx[p], score[p] = h.idx[0], h.score[0]
		h.swap(0, n-1)
		n--
		h.siftDown(0, n)
	}
}

// worse reports whether slot a holds a strictly worse pair than slot b.
func (h *Heap) worse(a, b int) bool {
	if h.score[a] != h.score[b] {
		return h.score[a] < h.score[b]
	}
	return h.idx[a] > h.idx[b]
}

func (h *Heap) swap(a, b int) {
	h.idx[a], h.idx[b] = h.idx[b], h.idx[a]
	h.score[a], h.score[b] = h.score[b], h.score[a]
}

func (h *Heap) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.worse(i, p) {
			return
		}
		h.swap(i, p)
		i = p
	}
}

func (h *Heap) siftDown(i, n int) {
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && h.worse(r, l) {
			m = r
		}
		if !h.worse(m, i) {
			return
		}
		h.swap(i, m)
		i = m
	}
}

// SortRow orders one row best first in place: descending score, ties
// by ascending id.
func SortRow(idx []int32, score []float64) {
	sort.Sort(row{idx: idx, score: score})
}

// row adapts one row to sort.Interface. The comparator is a strict
// total order, so the unstable sort is deterministic.
type row struct {
	idx   []int32
	score []float64
}

func (r row) Len() int { return len(r.idx) }
func (r row) Less(a, b int) bool {
	if r.score[a] != r.score[b] {
		return r.score[a] > r.score[b]
	}
	return r.idx[a] < r.idx[b]
}
func (r row) Swap(a, b int) {
	r.idx[a], r.idx[b] = r.idx[b], r.idx[a]
	r.score[a], r.score[b] = r.score[b], r.score[a]
}

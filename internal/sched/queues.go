package sched

// Per-arc token FIFOs: an inline front slot in the arc descriptor plus a
// power-of-two ring region in the drain's arena.
//
// The realized backlog of most arcs is 0 or 1 token, so the front token is
// stored inline in the NumArcs-sized descriptor table: an uncongested push
// or pop touches one descriptor and never allocates. Backlog behind the
// front lives in a ring region of the arena, sized to the
// arc's realized backlog by doubling (the old region is abandoned inside
// the arena — bounded by the doubling — so there is no free-list churn and
// no per-chunk pointer chasing). Regions stay bound to their arc for the
// whole run; the arena is truncated wholesale between runs, and the
// descriptor table is epoch-tagged so a Runner invalidates all queues by
// bumping the epoch instead of clearing the table.

// arcQueue is the per-arc FIFO descriptor (32 bytes for the 8-byte BFS
// token). The inline slot holds the front token iff frontInline; the ring
// region holds the rest in FIFO order starting at head.
type arcQueue[T any] struct {
	slot        T
	epoch       uint32
	qlen        int32  // tokens currently queued
	load        int32  // tokens ever pushed (realized arc congestion)
	base        int32  // ring region base in the arena
	head        uint32 // ring consume offset
	lcap        uint8  // log2 of the ring capacity; 0 = no region yet
	frontInline bool
}

// ringArena is the drain's ring storage.
type ringArena[T any] struct {
	buf  []T
	maxQ int32 // largest post-push queue length of the run
}

func (a *ringArena[T]) reset() {
	a.buf = a.buf[:0]
	a.maxQ = 0
}

// region extends the arena by n slots and returns the base index.
func (a *ringArena[T]) region(n int32) int32 {
	base := len(a.buf)
	need := base + int(n)
	if cap(a.buf) < need {
		grown := need * 2
		if grown < 1024 {
			grown = 1024
		}
		nb := make([]T, need, grown)
		copy(nb, a.buf)
		a.buf = nb
	} else {
		a.buf = a.buf[:need]
	}
	return int32(base)
}

// grow moves arc q's ring (ringCnt tokens from head) into a region of twice
// the capacity.
func grow[T any](q *arcQueue[T], a *ringArena[T], ringCnt int32) {
	newL := uint8(2)
	if q.lcap > 0 {
		newL = q.lcap + 1
	}
	base := a.region(int32(1) << newL)
	oldMask := (uint32(1) << q.lcap) - 1
	for i := int32(0); i < ringCnt; i++ {
		a.buf[base+i] = a.buf[q.base+int32((q.head+uint32(i))&oldMask)]
	}
	q.base = base
	q.head = 0
	q.lcap = newL
}

// push appends tk to arc's queue using arena a, reporting whether
// the queue was empty beforehand (the arc-activation signal).
func push[T any](qs []arcQueue[T], epoch uint32, a *ringArena[T], arc int32, tk T) (wasEmpty bool) {
	q := &qs[arc]
	if q.epoch != epoch {
		*q = arcQueue[T]{epoch: epoch}
	}
	if q.qlen == 0 {
		q.slot = tk
		q.frontInline = true
		q.qlen = 1
		q.load++
		if a.maxQ == 0 {
			a.maxQ = 1
		}
		return true
	}
	ringCnt := q.qlen
	if q.frontInline {
		ringCnt--
	}
	if q.lcap == 0 || ringCnt == int32(1)<<q.lcap {
		grow(q, a, ringCnt)
	}
	mask := (uint32(1) << q.lcap) - 1
	a.buf[q.base+int32((q.head+uint32(ringCnt))&mask)] = tk
	q.qlen++
	q.load++
	if q.qlen > a.maxQ {
		a.maxQ = q.qlen
	}
	return false
}

// pop removes and returns the head token of arc's queue (which must be
// non-empty and epoch-current).
func pop[T any](qs []arcQueue[T], a *ringArena[T], arc int32) T {
	q := &qs[arc]
	q.qlen--
	if q.frontInline {
		q.frontInline = false
		return q.slot
	}
	mask := (uint32(1) << q.lcap) - 1
	tk := a.buf[q.base+int32(q.head&mask)]
	q.head = (q.head + 1) & mask
	return tk
}

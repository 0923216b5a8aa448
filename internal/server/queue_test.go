package server

import "testing"

// depth reports how many submissions wait at the turnstile.
func (q *fairQueue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.n
}

func (t *ticket) isGranted() bool {
	select {
	case <-t.granted:
		return true
	default:
		return false
	}
}

// mustEnter joins the line on a queue with no free slot: the ticket
// must be issued and must be waiting.
func mustEnter(t *testing.T, q *fairQueue, tenant string) *ticket {
	t.Helper()
	tk := q.enter(tenant)
	if tk == nil {
		t.Fatalf("enter %s: line unexpectedly full", tenant)
	}
	if tk.isGranted() {
		t.Fatalf("enter %s: granted a slot nobody released", tenant)
	}
	return tk
}

// mustGrant releases one slot and requires that it went to want and to
// no one else in line.
func mustGrant(t *testing.T, q *fairQueue, what string, want *ticket, line ...*ticket) {
	t.Helper()
	q.release()
	if !want.isGranted() {
		t.Fatalf("%s: the released slot did not go to the expected waiter", what)
	}
	for _, other := range line {
		if other != want && other.isGranted() {
			t.Fatalf("%s: one release granted two waiters", what)
		}
	}
}

// TestFairQueueRoundRobin: freed slots go to tenants round-robin, so a
// tenant's flood delays its own later jobs, not another tenant's
// first. Entry order A1 A2 A3 B1 C1 C2 must be served A1 B1 C1 A2 C2 A3.
func TestFairQueueRoundRobin(t *testing.T) {
	q := newFairQueue(8)
	a1, a2, a3 := mustEnter(t, q, "a"), mustEnter(t, q, "a"), mustEnter(t, q, "a")
	b1 := mustEnter(t, q, "b")
	c1, c2 := mustEnter(t, q, "c"), mustEnter(t, q, "c")

	served := map[*ticket]bool{}
	for i, want := range []*ticket{a1, b1, c1, a2, c2, a3} {
		q.release()
		for _, tk := range []*ticket{a1, a2, a3, b1, c1, c2} {
			if tk.isGranted() && !served[tk] {
				served[tk] = true
				if tk != want {
					t.Fatalf("grant %d went out of round-robin order", i)
				}
			}
		}
		if len(served) != i+1 {
			t.Fatalf("grant %d: %d waiters served after %d releases", i, len(served), i+1)
		}
	}
	if q.depth() != 0 {
		t.Fatalf("depth after serving everyone = %d, want 0", q.depth())
	}
}

// TestFairQueueBackpressure: the bound is global and enter refuses at
// capacity; a grant frees exactly one place in line.
func TestFairQueueBackpressure(t *testing.T) {
	q := newFairQueue(2)
	a, b := mustEnter(t, q, "a"), mustEnter(t, q, "b")
	if q.enter("c") != nil {
		t.Fatal("enter beyond capacity accepted")
	}
	mustGrant(t, q, "first release", a, a, b)
	mustEnter(t, q, "c")
	if q.enter("d") != nil {
		t.Fatal("enter beyond capacity accepted after the freed place was retaken")
	}
}

// TestFairQueueFreeSlotGrantsAtOnce: a slot released with no one in
// line stays free, and the next enter takes it without waiting and
// without counting against the line's capacity. A ticket that holds a
// slot has nothing to leave: leave says so, and the slot is its
// holder's to release.
func TestFairQueueFreeSlotGrantsAtOnce(t *testing.T) {
	q := newFairQueue(1)
	q.release()
	runner := q.enter("a")
	if runner == nil || !runner.isGranted() {
		t.Fatal("enter with a free slot did not take it")
	}
	waiter := mustEnter(t, q, "b") // the slot is taken; capacity 1 is one waiter
	if q.enter("c") != nil {
		t.Fatal("enter beyond capacity accepted")
	}
	if q.leave(runner) {
		t.Fatal("leave of a granted ticket reported it was still waiting")
	}
	mustGrant(t, q, "runner's release", waiter)
	if q.leave(waiter) {
		t.Fatal("leave after a concurrent grant reported the ticket was still waiting")
	}
	q.release()
	if again := q.enter("c"); again == nil || !again.isGranted() {
		t.Fatal("a slot released with no one in line was lost")
	}
}

// TestFairQueueLeaveReleasesCapacity: a waiter that gives up frees its
// place in line immediately, and no later release is spent on it.
func TestFairQueueLeaveReleasesCapacity(t *testing.T) {
	q := newFairQueue(2)
	a, b := mustEnter(t, q, "a"), mustEnter(t, q, "b")
	if q.enter("c") != nil {
		t.Fatal("enter beyond capacity accepted")
	}
	if !q.leave(a) {
		t.Fatal("leave of a waiting ticket reported it was not in line")
	}
	if q.depth() != 1 {
		t.Fatalf("depth after leave = %d, want 1", q.depth())
	}
	c := mustEnter(t, q, "c")
	mustGrant(t, q, "first release after leave", b, a, b, c)
	mustGrant(t, q, "second release after leave", c, a, c)
	q.release()
	if a.isGranted() {
		t.Fatal("a release was spent on a ticket that had left")
	}
	if q.leave(a) {
		t.Fatal("leaving twice succeeded")
	}
}

// TestFairQueueLeaveMidFIFO: leaving from the middle of a tenant's FIFO
// keeps that tenant's remaining order intact.
func TestFairQueueLeaveMidFIFO(t *testing.T) {
	q := newFairQueue(4)
	a1, a2, a3 := mustEnter(t, q, "a"), mustEnter(t, q, "a"), mustEnter(t, q, "a")
	if !q.leave(a2) {
		t.Fatal("mid-FIFO leave reported not in line")
	}
	mustGrant(t, q, "first release", a1, a1, a2, a3)
	mustGrant(t, q, "second release", a3, a2, a3)
	if q.depth() != 0 {
		t.Fatalf("depth after serving everyone = %d, want 0", q.depth())
	}
}

// TestFairQueueLeaveAroundCursorKeepsRingOrder: a tenant leaving the
// ring — from before the round-robin cursor, at it, or after it — must
// not make the cursor skip or repeat anyone: before, the cursor shifts
// with the ring; at, it falls to the following tenant; after, it stays.
func TestFairQueueLeaveAroundCursorKeepsRingOrder(t *testing.T) {
	for _, tc := range []struct {
		name          string
		leaver        int // index into {a2, b, c}
		first, second int
	}{
		{"before the cursor", 0, 1, 2},
		{"at the cursor", 1, 2, 0},
		{"after the cursor", 2, 1, 0},
	} {
		q := newFairQueue(4)
		a1, a2 := mustEnter(t, q, "a"), mustEnter(t, q, "a")
		b, c := mustEnter(t, q, "b"), mustEnter(t, q, "c")
		mustGrant(t, q, tc.name+": first release", a1, a1, a2, b, c)
		// The ring is a b c and the cursor now points at b.
		rest := []*ticket{a2, b, c}
		if !q.leave(rest[tc.leaver]) {
			t.Fatalf("%s: leave reported not in line", tc.name)
		}
		mustGrant(t, q, tc.name+": release after leave", rest[tc.first], rest...)
		mustGrant(t, q, tc.name+": last release", rest[tc.second], rest[tc.second], rest[tc.leaver])
		if q.depth() != 0 {
			t.Fatalf("%s: depth after serving everyone = %d, want 0", tc.name, q.depth())
		}
	}
}

// TestFairQueueSingleTenantFIFO: with one tenant the line is a plain
// FIFO.
func TestFairQueueSingleTenantFIFO(t *testing.T) {
	q := newFairQueue(4)
	line := []*ticket{mustEnter(t, q, "a"), mustEnter(t, q, "a"), mustEnter(t, q, "a")}
	for i, want := range line {
		mustGrant(t, q, "release", want, line[i:]...)
	}
}

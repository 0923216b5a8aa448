package server

import "sync"

// fairQueue is a fair turnstile in front of the server's run slots: a
// submission enters, waits for its ticket to be granted, runs, and
// releases the slot. Waiters stand in per-tenant FIFOs served
// round-robin, so one tenant flooding the server delays its own later
// jobs, not other tenants' first ones. The bound is global and counts
// waiters only — enter refuses outright when capacity submissions are
// already waiting, which is the server's backpressure signal (429),
// never unbounded memory.
//
// Every decision — who waits, who holds a slot — is made under mu, so
// the one interleaving left (a waiter giving up while a slot is being
// handed to it) has exactly one answer: leave reports it.
//
// The round-robin ring is an explicit slice in tenant arrival order,
// not a map iteration, so grant order is deterministic for a given
// enter/release history (and stays clear of the maprange invariant).
type fairQueue struct {
	mu sync.Mutex
	// capacity bounds the waiters across all tenants; n counts them.
	capacity int
	n        int
	// free counts open slots nobody waits for: a slot is only ever free
	// while no one is waiting.
	free int
	// fifos holds each tenant's waiters in arrival order.
	fifos map[string][]*ticket
	// ring lists tenants with waiters, in first-arrival order; next
	// indexes the tenant the next freed slot goes to.
	ring []string
	next int
}

// ticket is one submission's place at the turnstile; granted is closed,
// under the queue's mutex, when a slot becomes the holder's.
type ticket struct {
	tenant  string
	granted chan struct{}
}

func newFairQueue(capacity int) *fairQueue {
	if capacity <= 0 {
		capacity = 16
	}
	return &fairQueue{capacity: capacity, fifos: map[string][]*ticket{}}
}

// enter takes a free slot at once or joins the tenant's FIFO; nil means
// capacity submissions are already waiting and the caller must shed
// this one (429 + Retry-After).
func (q *fairQueue) enter(tenant string) *ticket {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.free == 0 && q.n >= q.capacity {
		return nil
	}
	t := &ticket{tenant: tenant, granted: make(chan struct{})}
	if q.free > 0 {
		q.free--
		close(t.granted)
		return t
	}
	if _, seen := q.fifos[tenant]; !seen {
		q.ring = append(q.ring, tenant)
	}
	q.fifos[tenant] = append(q.fifos[tenant], t)
	q.n++
	return t
}

// release gives a slot back — or, from Start, opens a new one: it goes
// to the head waiter of the ring's next tenant, else it stays free.
// Each grant advances the ring one tenant, so tenants with waiters
// alternate regardless of how deep any one tenant's FIFO is.
func (q *fairQueue) release() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if t := q.take(); t != nil {
		close(t.granted)
	} else {
		q.free++
	}
}

// leave unlinks a waiter that gave up — its client disconnected or the
// server is draining — so its place frees the moment it goes: an
// abandoned submission must not hold capacity (and draw 429s for live
// traffic). It reports whether t was still waiting; false means a slot
// was granted first, and that slot is the caller's to release.
func (q *fairQueue) leave(t *ticket) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	fifo := q.fifos[t.tenant]
	idx := -1
	for i := range fifo {
		if fifo[i] == t {
			idx = i
			break
		}
	}
	if idx < 0 {
		return false
	}
	if len(fifo) == 1 {
		delete(q.fifos, t.tenant)
		for ri, tenant := range q.ring {
			if tenant == t.tenant {
				q.ring = append(q.ring[:ri], q.ring[ri+1:]...)
				if ri < q.next {
					q.next--
				}
				break
			}
		}
		if len(q.ring) == 0 {
			q.next = 0
		} else {
			q.next %= len(q.ring)
		}
	} else {
		q.fifos[t.tenant] = append(fifo[:idx], fifo[idx+1:]...)
	}
	q.n--
	return true
}

// take unlinks and returns the head waiter of the ring's next tenant,
// or nil when no one waits. The caller holds mu.
func (q *fairQueue) take() *ticket {
	if len(q.ring) == 0 {
		return nil
	}
	tenant := q.ring[q.next]
	fifo := q.fifos[tenant]
	t := fifo[0]
	if len(fifo) == 1 {
		// Tenant drained: drop it from the ring; next now indexes the
		// following tenant, so no advance.
		delete(q.fifos, tenant)
		q.ring = append(q.ring[:q.next], q.ring[q.next+1:]...)
		if len(q.ring) == 0 {
			q.next = 0
		} else {
			q.next %= len(q.ring)
		}
	} else {
		q.fifos[tenant] = fifo[1:]
		q.next = (q.next + 1) % len(q.ring)
	}
	q.n--
	return t
}

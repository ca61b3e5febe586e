package engine

import (
	"sync"
)

// Ledger is the engine's pull-based unit-leasing primitive: work
// items are assigned to named owners (one pending deque per owner —
// a backend's share of a campaign, say), and owner workers *pull*
// leases instead of having units pushed at them.  A worker whose own
// deque is empty steals from the back of the peer with the most
// pending work — the slowest owner — so one degraded owner cannot
// tail-block a run: its untouched share drains through everyone
// else.  Drain, the engine's local pool, runs on a Ledger, and the
// coordinator (internal/coord) drives its fleet dispatch loop on one;
// the type itself knows nothing about backends or HTTP.
//
// The leasing contract mirrors the engine's purity assumption: items
// are independent and may be executed by any owner, so a lease that
// is Released (holder failed, or run canceled) simply returns to its
// origin deque and is picked up — usually stolen — by someone else.
// Every leased item is eventually Completed or Released; the ledger
// is drained exactly when every item has been Completed.
//
// All methods are safe for concurrent use.  Lease blocks while the
// ledger is neither drained nor canceled but has no pending item —
// an outstanding lease may yet be Released back — so workers can
// loop on Lease until it reports false and never busy-wait.
type Ledger[T any] struct {
	mu       sync.Mutex
	cond     *sync.Cond
	pending  map[string][]T
	order    []string // owner scan order (registration order)
	leased   int
	canceled bool
}

// Lease is one leased item: the item itself, the owner whose deque it
// came from, and whether taking it was a steal (the leasing owner's
// own deque was empty).
type Lease[T any] struct {
	Item   T
	Owner  string // origin owner (steal victim when Stolen)
	Stolen bool
}

// NewLedger returns an empty ledger with the given owners registered,
// in scan order.  Add registers further owners.
func NewLedger[T any](owners ...string) *Ledger[T] {
	l := &Ledger[T]{pending: make(map[string][]T)}
	l.cond = sync.NewCond(&l.mu)
	for _, o := range owners {
		l.addOwnerLocked(o)
	}
	return l
}

func (l *Ledger[T]) addOwnerLocked(owner string) {
	if _, ok := l.pending[owner]; ok {
		return
	}
	l.pending[owner] = nil
	l.order = append(l.order, owner)
}

// Add appends items to owner's pending deque, registering the owner
// if needed, and wakes blocked leasers.
func (l *Ledger[T]) Add(owner string, items ...T) {
	if len(items) == 0 {
		return
	}
	l.mu.Lock()
	l.addOwnerLocked(owner)
	l.pending[owner] = append(l.pending[owner], items...)
	l.mu.Unlock()
	l.cond.Broadcast()
}

// Lease pulls one item for owner: the front of owner's own deque, or
// — when it is empty — the back of the deque of the peer with the
// most pending items (the steal).  It blocks while no item is
// pending but leases are outstanding (a Release may return one), and
// reports ok == false only when the ledger is drained or canceled.
// Every true lease must be matched by exactly one Complete or
// Release.
func (l *Ledger[T]) Lease(owner string) (Lease[T], bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		if l.canceled {
			return Lease[T]{}, false
		}
		if q := l.pending[owner]; len(q) > 0 {
			item := q[0]
			l.pending[owner] = q[1:]
			l.leased++
			return Lease[T]{Item: item, Owner: owner}, true
		}
		if victim := l.victimLocked(owner); victim != "" {
			q := l.pending[victim]
			item := q[len(q)-1]
			l.pending[victim] = q[:len(q)-1]
			l.leased++
			return Lease[T]{Item: item, Owner: victim, Stolen: true}, true
		}
		if l.leased == 0 {
			return Lease[T]{}, false // drained: nothing pending, nothing in flight
		}
		l.cond.Wait()
	}
}

// victimLocked picks the owner with the most pending items, excluding
// the leasing owner (whose deque is known empty).  Ties resolve to
// the earliest-registered owner, keeping victim choice deterministic
// for a given ledger state.
func (l *Ledger[T]) victimLocked(owner string) string {
	best, bestN := "", 0
	for _, o := range l.order {
		if o == owner {
			continue
		}
		if n := len(l.pending[o]); n > bestN {
			best, bestN = o, n
		}
	}
	return best
}

// Complete retires a lease: its item is done and never reappears.
func (l *Ledger[T]) Complete(Lease[T]) {
	l.mu.Lock()
	l.leased--
	l.mu.Unlock()
	l.cond.Broadcast()
}

// Release returns a leased item to the front of its origin owner's
// deque — the holder failed or gave up, and someone else (typically a
// stealing peer) should run it.  Releasing after Cancel still
// requeues the item, so Outstanding reliably reaches zero once every
// holder has released: cancellation never orphans a lease.
func (l *Ledger[T]) Release(ls Lease[T]) {
	l.mu.Lock()
	l.addOwnerLocked(ls.Owner)
	l.pending[ls.Owner] = append([]T{ls.Item}, l.pending[ls.Owner]...)
	l.leased--
	l.mu.Unlock()
	l.cond.Broadcast()
}

// Cancel makes every current and future Lease call report false.
// Outstanding leases are unaffected — holders still Complete or
// Release them — so callers can wait for Outstanding() == 0 to know
// every in-flight item is accounted for.
func (l *Ledger[T]) Cancel() {
	l.mu.Lock()
	l.canceled = true
	l.mu.Unlock()
	l.cond.Broadcast()
}

// Outstanding returns the number of leases neither Completed nor
// Released.
func (l *Ledger[T]) Outstanding() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.leased
}

// Pending returns the number of items waiting in owner's deque.
func (l *Ledger[T]) Pending(owner string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.pending[owner])
}

package engine

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestLedgerDrainSingleOwner(t *testing.T) {
	l := NewLedger[int]("a")
	l.Add("a", 1, 2, 3)
	var got []int
	for {
		ls, ok := l.Lease("a")
		if !ok {
			break
		}
		got = append(got, ls.Item)
		if ls.Stolen {
			t.Errorf("lease of own item %d marked stolen", ls.Item)
		}
		l.Complete(ls)
	}
	if want := []int{1, 2, 3}; !equalInts(got, want) {
		t.Fatalf("drained %v, want %v (FIFO from own deque)", got, want)
	}
	if n := l.Outstanding(); n != 0 {
		t.Errorf("Outstanding() = %d after all items completed, want 0", n)
	}
}

func TestLedgerStealFromSlowest(t *testing.T) {
	l := NewLedger[int]("fast", "slow", "slower")
	l.Add("slow", 1, 2)
	l.Add("slower", 10, 11, 12, 13)

	// "fast" has nothing of its own: each lease must steal from the
	// owner with the most pending work, popping from the back.
	ls, ok := l.Lease("fast")
	if !ok || !ls.Stolen {
		t.Fatalf("Lease(fast) = %+v, %v; want a steal", ls, ok)
	}
	if ls.Owner != "slower" || ls.Item != 13 {
		t.Fatalf("first steal = item %d from %q, want 13 from slower (back of deepest deque)", ls.Item, ls.Owner)
	}
	l.Complete(ls)

	// slower now has 3 pending, slow has 2: still steal from slower.
	ls, ok = l.Lease("fast")
	if !ok || !ls.Stolen || ls.Owner != "slower" || ls.Item != 12 {
		t.Fatalf("second steal = item %d from %q (ok=%v), want 12 from slower", ls.Item, ls.Owner, ok)
	}
	l.Complete(ls)

	// The victim's own front is untouched by steals.
	own, ok := l.Lease("slower")
	if !ok || own.Stolen || own.Item != 10 {
		t.Fatalf("Lease(slower) = %+v, %v; want own front item 10", own, ok)
	}
	l.Complete(own)
}

func TestLedgerReleaseRequeuesToOrigin(t *testing.T) {
	l := NewLedger[int]("a", "b")
	l.Add("a", 1, 2)

	ls, ok := l.Lease("b") // steals 2 from the back of a
	if !ok || ls.Owner != "a" || ls.Item != 2 {
		t.Fatalf("Lease(b) = %+v, %v; want steal of 2 from a", ls, ok)
	}
	l.Release(ls)

	if n := l.Pending("a"); n != 2 {
		t.Fatalf("Pending(a) = %d after release, want 2", n)
	}
	// Released items return to the FRONT of the origin deque so a
	// retried unit is picked up before untouched work.
	next, ok := l.Lease("a")
	if !ok || next.Item != 2 {
		t.Fatalf("Lease(a) after release = %+v, %v; want item 2 first", next, ok)
	}
	l.Complete(next)
}

// TestLedgerLeaseBlocksOnOutstanding pins the no-strand guarantee: a
// leaser seeing empty deques while a peer holds a lease must wait, not
// exit, because a Release may hand the item back.
func TestLedgerLeaseBlocksOnOutstanding(t *testing.T) {
	l := NewLedger[int]("a", "b")
	l.Add("a", 7)

	ls, ok := l.Lease("a")
	if !ok {
		t.Fatal("Lease(a) failed")
	}

	got := make(chan Lease[int], 1)
	var done atomic.Bool
	go func() {
		second, ok := l.Lease("b")
		done.Store(true)
		if ok {
			got <- second
		}
		close(got)
	}()

	if done.Load() {
		t.Fatal("Lease(b) returned while a lease was outstanding and deques were empty")
	}
	l.Release(ls)

	second, open := <-got
	if !open {
		t.Fatal("Lease(b) reported drained; want the released item")
	}
	if second.Item != 7 || second.Owner != "a" {
		t.Fatalf("Lease(b) after release = %+v, want item 7 from a", second)
	}
	l.Complete(second)

	if _, ok := l.Lease("a"); ok {
		t.Error("Lease(a) succeeded on a drained ledger")
	}
}

// TestLedgerCancelMidStealNoOrphans is the satellite durability edge:
// cancel while stolen leases are in flight, then have every holder
// release — the ledger must account for every lease (Outstanding 0)
// and wake all blocked leasers with ok == false.
func TestLedgerCancelMidStealNoOrphans(t *testing.T) {
	l := NewLedger[int]("a", "b", "c")
	l.Add("a", 1, 2, 3, 4, 5, 6)

	var held []Lease[int]
	for _, owner := range []string{"b", "c", "b"} {
		ls, ok := l.Lease(owner)
		if !ok || !ls.Stolen {
			t.Fatalf("Lease(%s) = %+v, %v; want a steal", owner, ls, ok)
		}
		held = append(held, ls)
	}

	// A leaser blocked after cancel must return promptly.
	blocked := make(chan bool, 1)
	go func() {
		_, ok := l.Lease("zzz-unregistered")
		blocked <- ok
	}()
	// Not blocked, actually: deques still hold 1,2,3 so this steals.
	if ok := <-blocked; !ok {
		t.Fatal("pre-cancel Lease should still succeed")
	}

	l.Cancel()

	if _, ok := l.Lease("a"); ok {
		t.Error("Lease succeeded after Cancel")
	}
	for _, ls := range held {
		l.Release(ls)
	}
	if n := l.Outstanding(); n != 1 {
		// The steal taken by the goroutine above is still held; all
		// explicitly-held leases were released.
		t.Errorf("Outstanding() = %d after releases, want 1 (the probe goroutine's lease)", n)
	}
	if n := l.Pending("a"); n != 3+2 {
		t.Errorf("Pending(a) = %d, want 5 (3 never leased + 2 released)", n)
	}
}

func TestLedgerConcurrentDrain(t *testing.T) {
	const (
		owners  = 4
		perDeck = 64
		workers = 3 // per owner
	)
	names := make([]string, owners)
	for i := range names {
		names[i] = string(rune('a' + i))
	}
	l := NewLedger[int](names...)
	total := 0
	for i, name := range names {
		// Skewed load: owner i gets (i+1)*perDeck items, so early
		// owners finish first and steal from late ones.
		items := make([]int, (i+1)*perDeck)
		for j := range items {
			items[j] = total + j
		}
		total += len(items)
		l.Add(name, items...)
	}

	var (
		mu     sync.Mutex
		seen   = make(map[int]int)
		wg     sync.WaitGroup
		steals atomic.Int32
	)
	for _, name := range names {
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(owner string) {
				defer wg.Done()
				for {
					ls, ok := l.Lease(owner)
					if !ok {
						return
					}
					if ls.Stolen {
						steals.Add(1)
					}
					mu.Lock()
					seen[ls.Item]++
					mu.Unlock()
					l.Complete(ls)
				}
			}(name)
		}
	}
	wg.Wait()

	if len(seen) != total {
		t.Fatalf("completed %d distinct items, want %d", len(seen), total)
	}
	for item, n := range seen {
		if n != 1 {
			t.Fatalf("item %d completed %d times, want exactly once", item, n)
		}
	}
	if l.Outstanding() != 0 {
		t.Errorf("Outstanding() = %d, want 0", l.Outstanding())
	}
	if _, ok := l.Lease(names[0]); ok {
		t.Error("Lease succeeded after concurrent drain")
	}
	if steals.Load() == 0 {
		t.Error("no lease was Stolen under skewed load; expected work-stealing")
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

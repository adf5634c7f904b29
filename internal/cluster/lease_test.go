package cluster

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"confmask/internal/faults"
)

func testManager(t *testing.T, node string, ttl time.Duration) (*Manager, *time.Time) {
	t.Helper()
	now := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	m := NewManager(node, ttl)
	m.now = func() time.Time { return now }
	return m, &now
}

func TestLeaseAcquireRenewRelease(t *testing.T) {
	dir := t.TempDir()
	m, now := testManager(t, "node-a", time.Minute)

	h, err := m.Acquire(dir)
	if err != nil {
		t.Fatalf("acquire: %v", err)
	}
	if h.Epoch() != 1 || h.Owner() != "node-a" {
		t.Fatalf("handle = epoch %d owner %s, want epoch 1 node-a", h.Epoch(), h.Owner())
	}
	l, err := m.Read(dir)
	if err != nil || l.Epoch != 1 || l.Owner != "node-a" || l.Released {
		t.Fatalf("read lease = %+v, %v", l, err)
	}
	if !l.Deadline.Equal(now.Add(time.Minute)) {
		t.Fatalf("deadline = %v, want %v", l.Deadline, now.Add(time.Minute))
	}

	*now = now.Add(30 * time.Second)
	if err := h.Renew(); err != nil {
		t.Fatalf("renew: %v", err)
	}
	if l, _ = m.Read(dir); !l.Deadline.Equal(now.Add(time.Minute)) {
		t.Fatalf("renewed deadline = %v, want %v", l.Deadline, now.Add(time.Minute))
	}
	if err := h.Verify(); err != nil {
		t.Fatalf("verify after renew: %v", err)
	}

	h.Release()
	if l, _ = m.Read(dir); !l.Released {
		t.Fatalf("lease not released: %+v", l)
	}
	if h.Valid() {
		t.Fatal("handle still valid after release")
	}
}

func TestLeaseHeldByLiveOwner(t *testing.T) {
	dir := t.TempDir()
	a, _ := testManager(t, "node-a", time.Minute)
	b, _ := testManager(t, "node-b", time.Minute)

	if _, err := a.Acquire(dir); err != nil {
		t.Fatalf("acquire a: %v", err)
	}
	if _, err := b.Acquire(dir); !errors.Is(err, ErrHeld) {
		t.Fatalf("acquire b = %v, want ErrHeld", err)
	}
}

func TestLeaseExpiryAllowsTakeoverAndFencesOldOwner(t *testing.T) {
	dir := t.TempDir()
	a, nowA := testManager(t, "node-a", time.Minute)
	b, nowB := testManager(t, "node-b", time.Minute)

	ha, err := a.Acquire(dir)
	if err != nil {
		t.Fatalf("acquire a: %v", err)
	}

	// Advance both clocks past A's deadline: B may take over.
	*nowA = nowA.Add(2 * time.Minute)
	*nowB = nowB.Add(2 * time.Minute)
	hb, err := b.Acquire(dir)
	if err != nil {
		t.Fatalf("acquire b after expiry: %v", err)
	}
	if hb.Epoch() != 2 {
		t.Fatalf("takeover epoch = %d, want 2", hb.Epoch())
	}

	// A is now fenced on every path.
	if err := ha.Verify(); !errors.Is(err, ErrFenced) {
		t.Fatalf("stale verify = %v, want ErrFenced", err)
	}
	if ha.Valid() {
		t.Fatal("stale handle still valid after failed verify")
	}
	if err := ha.Renew(); !errors.Is(err, ErrFenced) {
		t.Fatalf("stale renew = %v, want ErrFenced", err)
	}
	// A stale release must not clobber B's lease.
	ha.Release()
	if l, _ := b.Read(dir); l.Epoch != 2 || l.Owner != "node-b" || l.Released {
		t.Fatalf("lease after stale release = %+v, want node-b epoch 2 live", l)
	}
	if err := hb.Verify(); err != nil {
		t.Fatalf("new owner verify: %v", err)
	}
}

func TestLeaseOwnNodeStaleClaimable(t *testing.T) {
	// A node restarting under the same ID finds its own lease from before
	// the crash — unexpired, because the heartbeat was running until the
	// kill. It must be able to reclaim immediately, at a higher epoch.
	dir := t.TempDir()
	a, _ := testManager(t, "node-a", time.Hour)
	h1, err := a.Acquire(dir)
	if err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	h2, err := a.Acquire(dir)
	if err != nil {
		t.Fatalf("self reclaim: %v", err)
	}
	if h2.Epoch() != 2 {
		t.Fatalf("reclaim epoch = %d, want 2", h2.Epoch())
	}
	// The pre-crash incarnation's handle is fenced by the reclaim.
	if err := h1.Verify(); !errors.Is(err, ErrFenced) {
		t.Fatalf("old incarnation verify = %v, want ErrFenced", err)
	}
}

func TestLeaseConcurrentClaimExactlyOneWinner(t *testing.T) {
	dir := t.TempDir()
	const claimants = 8
	var wg sync.WaitGroup
	wins := make(chan int, claimants)
	for i := 0; i < claimants; i++ {
		m, _ := testManager(t, "node-"+string(rune('a'+i)), time.Minute)
		wg.Add(1)
		go func() {
			defer wg.Done()
			h, err := m.Acquire(dir)
			if err == nil {
				wins <- h.Epoch()
			} else if !errors.Is(err, ErrHeld) {
				t.Errorf("loser error = %v, want ErrHeld", err)
			}
		}()
	}
	wg.Wait()
	close(wins)
	var epochs []int
	for e := range wins {
		epochs = append(epochs, e)
	}
	if len(epochs) != 1 || epochs[0] != 1 {
		t.Fatalf("winners = %v, want exactly one at epoch 1", epochs)
	}
}

func TestLeaseCrashedClaimEpochNotReused(t *testing.T) {
	// A claimant that crashed after creating its lock file but before
	// publishing lease.json must not deadlock the next claimant, and its
	// locked epoch must never be reused.
	dir := t.TempDir()
	ghost := filepath.Join(dir, "lease.3.lock")
	if err := os.WriteFile(ghost, []byte("ghost\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	m, now := testManager(t, "node-a", time.Minute)

	// While the ghost lock is fresh the claim could be in flight: back off.
	if err := os.Chtimes(ghost, *now, *now); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Acquire(dir); !errors.Is(err, ErrHeld) {
		t.Fatalf("acquire with fresh ghost lock = %v, want ErrHeld", err)
	}

	// Once it outlives the TTL the claimant is dead and its epoch burned.
	stale := now.Add(-2 * time.Minute)
	if err := os.Chtimes(ghost, stale, stale); err != nil {
		t.Fatal(err)
	}
	h, err := m.Acquire(dir)
	if err != nil {
		t.Fatalf("acquire around ghost lock: %v", err)
	}
	if h.Epoch() != 4 {
		t.Fatalf("epoch = %d, want 4 (ghost locked 3)", h.Epoch())
	}
}

func TestLeaseTornJSONClaimable(t *testing.T) {
	dir := t.TempDir()
	m, _ := testManager(t, "node-a", time.Minute)
	h1, err := m.Acquire(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a torn lease write: truncated JSON. The epoch survives in
	// the lock files, so the next claim still moves forward — once the
	// lock has aged past the TTL and cannot be an in-flight claim.
	if err := os.WriteFile(leasePath(dir), []byte(`{"owner":"node-a","ep`), 0o644); err != nil {
		t.Fatal(err)
	}
	b, nowB := testManager(t, "node-b", time.Minute)
	stale := nowB.Add(-2 * time.Minute)
	if err := os.Chtimes(filepath.Join(dir, "lease.1.lock"), stale, stale); err != nil {
		t.Fatal(err)
	}
	h2, err := b.Acquire(dir)
	if err != nil {
		t.Fatalf("acquire over torn lease: %v", err)
	}
	if h2.Epoch() != 2 {
		t.Fatalf("epoch = %d, want 2", h2.Epoch())
	}
	_ = h1
}

func TestLeaseFaultPoints(t *testing.T) {
	dir := t.TempDir()
	a, _ := testManager(t, "node-a", time.Hour)
	b, _ := testManager(t, "node-b", time.Hour)

	// cluster.lease.acquire: injected failure surfaces from Acquire.
	faults.Reset()
	if err := faults.ArmSpec("cluster.lease.acquire=error"); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Acquire(dir); err == nil || errors.Is(err, ErrHeld) {
		t.Fatalf("acquire under fault = %v, want injected error", err)
	}
	faults.Reset()

	h, err := a.Acquire(dir)
	if err != nil {
		t.Fatal(err)
	}

	// cluster.lease.expire: B may claim over A's live, unexpired lease —
	// the deterministic stand-in for deadline expiry.
	if err := faults.ArmSpec("cluster.lease.expire=error"); err != nil {
		t.Fatal(err)
	}
	hb, err := b.Acquire(dir)
	faults.Reset()
	if err != nil {
		t.Fatalf("forced-expiry acquire = %v", err)
	}
	if hb.Epoch() != 2 {
		t.Fatalf("forced takeover epoch = %d, want 2", hb.Epoch())
	}
	if err := h.Verify(); !errors.Is(err, ErrFenced) {
		t.Fatalf("fenced verify = %v, want ErrFenced", err)
	}

	// cluster.lease.renew: heartbeat loss invalidates the handle.
	if err := faults.ArmSpec("cluster.lease.renew=error"); err != nil {
		t.Fatal(err)
	}
	err = hb.Renew()
	faults.Reset()
	if err == nil {
		t.Fatal("renew under fault succeeded")
	}
	if hb.Valid() {
		t.Fatal("handle valid after failed renew")
	}
}

// TestLeaseRenewRacingTakeoverCannotRollBackEpoch forces the interleaving
// that used to roll an epoch back: A's Renew passes its verify, B takes
// the lease over and publishes epoch 2, and only then does A's write land.
// The "cluster.lease.renew.write" delay holds A between verify and write
// while B claims. A must come out fenced, and B must keep epoch 2.
func TestLeaseRenewRacingTakeoverCannotRollBackEpoch(t *testing.T) {
	dir := t.TempDir()
	a, _ := testManager(t, "node-a", time.Minute)
	b, nowB := testManager(t, "node-b", time.Minute)
	ha, err := a.Acquire(dir)
	if err != nil {
		t.Fatal(err)
	}

	faults.Reset()
	defer faults.Reset()
	faults.Arm("cluster.lease.renew.write", faults.Injection{Mode: faults.ModeDelay, Delay: 500 * time.Millisecond, On: 1})
	renewed := make(chan error, 1)
	go func() { renewed <- ha.Renew() }()
	for start := time.Now(); faults.Hits("cluster.lease.renew.write") == 0; time.Sleep(time.Millisecond) {
		if time.Since(start) > 10*time.Second {
			t.Fatal("renew never reached the cluster.lease.renew.write point")
		}
	}

	// A is parked past its verify. B sees A's lease expired and claims.
	*nowB = nowB.Add(2 * time.Minute)
	hb, err := b.Acquire(dir)
	if err != nil {
		t.Fatalf("takeover: %v", err)
	}
	if hb.Epoch() != 2 {
		t.Fatalf("takeover epoch = %d, want 2", hb.Epoch())
	}

	if err := <-renewed; !errors.Is(err, ErrFenced) {
		t.Fatalf("renew racing a takeover = %v, want ErrFenced", err)
	}
	if ha.Valid() {
		t.Fatal("stale owner still valid after its renew raced a takeover")
	}
	// B is not fenced by the stale write, and restores its lease.
	if err := hb.Verify(); err != nil {
		t.Fatalf("new owner verify after stale renew: %v", err)
	}
	if l, _ := b.Read(dir); l.Epoch != 2 || l.Owner != "node-b" || l.Released {
		t.Fatalf("lease after race = %+v, want node-b epoch 2 live", l)
	}
	if err := hb.Renew(); err != nil {
		t.Fatalf("new owner renew: %v", err)
	}
}

// TestLeaseClaimLockFencesHolder pins the lock files as the epoch
// authority: a claim lock above the holder's epoch fences it even before
// the claimant publishes, and a lease.json rolled back below the holder's
// epoch is republished rather than fencing the holder.
func TestLeaseClaimLockFencesHolder(t *testing.T) {
	dir := t.TempDir()
	a, _ := testManager(t, "node-a", time.Minute)
	h1, err := a.Acquire(dir)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := a.Acquire(dir) // same-node reclaim: epoch 2
	if err != nil {
		t.Fatal(err)
	}

	// Roll lease.json back to epoch 1, as a stale renewal would.
	if err := a.write(dir, Lease{Owner: "node-a", Epoch: 1, Deadline: h1.Deadline()}); err != nil {
		t.Fatal(err)
	}
	if err := h2.Verify(); err != nil {
		t.Fatalf("holder of epoch 2 over a rolled-back lease: %v", err)
	}
	if l, _ := a.Read(dir); l.Epoch != 2 {
		t.Fatalf("lease epoch = %d after republish, want 2", l.Epoch)
	}

	// An unpublished claim of epoch 3 fences the epoch-2 holder.
	if err := os.WriteFile(filepath.Join(dir, "lease.3.lock"), []byte("node-c\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := h2.Renew(); !errors.Is(err, ErrFenced) {
		t.Fatalf("renew under a newer claim lock = %v, want ErrFenced", err)
	}
	if l, _ := a.Read(dir); l.Epoch != 2 || !l.Deadline.Equal(h2.Deadline()) {
		t.Fatalf("fenced renew rewrote the lease: %+v", l)
	}
}

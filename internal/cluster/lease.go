// Package cluster is confmaskd's distributed execution layer: lease-based
// job ownership with epoch fencing over a shared journal directory, a
// deficit-round-robin scheduler with per-tenant queues and quotas, and a
// per-tenant token-bucket rate limiter. The package is storage-agnostic in
// spirit but filesystem-backed in practice: two daemons sharing one
// -data-dir coordinate exclusively through files, so a worker fleet needs
// nothing beyond a shared (local or network) directory.
//
// Ownership model. Every job directory carries a lease (lease.json): the
// owning node's ID, a monotonically increasing epoch, and a deadline the
// owner pushes forward on a heartbeat ticker. A worker claims a job by
// bumping the epoch through an O_EXCL lock file — the filesystem arbitrates
// concurrent claimants — and the epoch is the fencing token: every journal
// write the owner makes afterwards carries it, renewals and state-boundary
// writes re-verify it against lease.json, and journal replay discards
// records written under an epoch older than a later claim. A node that
// stalls past its deadline is fenced out the moment another node claims the
// next epoch: its renewals fail, its appends are refused, and whatever it
// managed to write before noticing is dropped at replay.
//
// The lock files, not lease.json, are the authority on epochs: a holder
// that finds a lock above its epoch is fenced, and a holder that finds
// lease.json at an epoch below its own (a fenced owner's write landed
// after the takeover published) restores its lease. A renewal racing a
// takeover therefore cannot roll an epoch back.
package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"confmask/internal/faults"
)

// Lease is the persisted ownership record of one job directory.
type Lease struct {
	// Owner is the node ID of the current (or last) claimant.
	Owner string `json:"owner"`
	// Epoch is the fencing token: it increases by exactly one per claim and
	// never repeats, so any two owners in a job's history are ordered.
	Epoch int `json:"epoch"`
	// Deadline is the wall-clock instant the lease expires unless renewed.
	Deadline time.Time `json:"deadline"`
	// Released marks a lease its owner gave up deliberately (job reached a
	// terminal state, or a graceful drain requeued it): the job is claimable
	// immediately, without waiting out the deadline.
	Released bool `json:"released,omitempty"`
}

var (
	// ErrHeld reports that another node holds an unexpired lease; the caller
	// must not run the job and should retry only after the lease can expire.
	ErrHeld = errors.New("cluster: lease held by another node")
	// ErrFenced reports that the caller's epoch is no longer the lease's
	// epoch: a newer claim exists and every write under the old epoch must
	// be refused.
	ErrFenced = errors.New("cluster: lease fenced by a newer epoch")
)

// Manager claims, renews, and inspects leases for one node.
type Manager struct {
	node string
	ttl  time.Duration
	now  func() time.Time // injectable clock for deterministic tests
}

// NewManager builds a lease manager for the given node ID and lease TTL.
func NewManager(node string, ttl time.Duration) *Manager {
	return &Manager{node: node, ttl: ttl, now: time.Now}
}

// Node returns the manager's node ID.
func (m *Manager) Node() string { return m.node }

func leasePath(dir string) string { return filepath.Join(dir, "lease.json") }

// Read returns the job directory's current lease; the zero Lease (Epoch 0)
// when none has ever been claimed.
func (m *Manager) Read(dir string) (Lease, error) {
	data, err := os.ReadFile(leasePath(dir))
	if err != nil {
		if os.IsNotExist(err) {
			return Lease{}, nil
		}
		return Lease{}, err
	}
	var l Lease
	if err := json.Unmarshal(data, &l); err != nil {
		// A torn lease write: claimable, like no lease at all. The epoch is
		// recovered from the lock files, which are written first.
		return Lease{}, nil
	}
	return l, nil
}

// Claimable reports whether a lease no longer protects its job: never
// claimed, deliberately released, expired past its deadline, or owned by
// this node itself (a node's own stale lease — left by a crash and restart
// under the same ID — must never deadlock it). The "cluster.lease.expire"
// fault point forces true for leases held by other nodes, so chaos tests
// can induce takeover and split-brain deterministically instead of waiting
// out a deadline.
func (m *Manager) Claimable(l Lease) bool {
	if l.Epoch == 0 || l.Released || l.Owner == m.node {
		return true
	}
	if err := faults.Fire("cluster.lease.expire"); err != nil {
		return true
	}
	return m.now().After(l.Deadline)
}

// unpublishedClaims inspects claim lock files with epochs beyond the
// published lease. Locks are created before lease.json is updated, so an
// epoch can be locked but never published in exactly two situations: the
// claimant crashed mid-claim, or the claim is in flight right now. The two
// are told apart by the lock file's age against the lease TTL — the same
// liveness bound the lease itself uses. It returns the highest epoch among
// stale (crashed) locks, and whether any lock looks in-flight.
func (m *Manager) unpublishedClaims(dir string, above int) (staleMax int, inFlight bool) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, false
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "lease.") || !strings.HasSuffix(name, ".lock") {
			continue
		}
		n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "lease."), ".lock"))
		if err != nil || n <= above {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		if m.now().Sub(info.ModTime()) > m.ttl {
			if n > staleMax {
				staleMax = n
			}
		} else {
			inFlight = true
		}
	}
	return staleMax, inFlight
}

// claimedAbove reports whether any claim lock beyond epoch exists — a newer
// claim, published or not, which fences every holder of epoch. A crashed
// claimant's lock fences too: it was only created because the lease was
// claimable, and the job is requeued once the lease expires.
func (m *Manager) claimedAbove(dir string, epoch int) bool {
	staleMax, inFlight := m.unpublishedClaims(dir, epoch)
	return staleMax > 0 || inFlight
}

// lockOwner returns the node ID recorded in an epoch's claim lock; "" when
// the lock is missing or unreadable.
func lockOwner(dir string, epoch int) string {
	data, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("lease.%d.lock", epoch)))
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(data))
}

// Acquire claims the job directory for this node: it bumps the epoch via an
// O_EXCL lock file (the filesystem rejects the second of two concurrent
// claimants) and publishes the new lease. ErrHeld when another node's lease
// is still live, a concurrent claim won the race, or a claim is in flight.
func (m *Manager) Acquire(dir string) (*Handle, error) {
	if err := faults.Fire("cluster.lease.acquire"); err != nil {
		return nil, fmt.Errorf("lease acquire: %w", err)
	}
	cur, err := m.Read(dir)
	if err != nil {
		return nil, fmt.Errorf("lease acquire: %w", err)
	}
	if !m.Claimable(cur) {
		return nil, fmt.Errorf("%w (owner %s, epoch %d)", ErrHeld, cur.Owner, cur.Epoch)
	}
	next := cur.Epoch + 1
	staleMax, inFlight := m.unpublishedClaims(dir, cur.Epoch)
	if inFlight {
		// A fresh lock beyond the published epoch means another claimant
		// is between lock-create and lease-publish right now. Backing off
		// (rather than escalating past it) is what keeps two concurrent
		// claimants from both winning.
		return nil, fmt.Errorf("%w (claim in flight)", ErrHeld)
	}
	if staleMax >= next {
		// A claimant crashed after locking these epochs but before
		// publishing: the epochs are burned (the locks are permanent
		// EEXIST) and the claim moves past them.
		next = staleMax + 1
	}
	lock := filepath.Join(dir, fmt.Sprintf("lease.%d.lock", next))
	f, err := os.OpenFile(lock, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		if os.IsExist(err) {
			// Lost the race for this epoch: whoever created the lock owns
			// the claim. Do NOT escalate to the next epoch — that would
			// fence a legitimate owner.
			return nil, fmt.Errorf("%w (epoch %d claim raced)", ErrHeld, next)
		}
		return nil, fmt.Errorf("lease acquire: %w", err)
	}
	fmt.Fprintf(f, "%s\n", m.node)
	f.Close()
	// Between the Claimable check and winning the lock another claimant
	// may have published a newer lease (it locked, published, and released
	// or expired again — or our scan simply raced its publish). Re-read
	// before publishing so a lower epoch never overwrites a higher one.
	if recheck, err := m.Read(dir); err != nil || recheck.Epoch >= next {
		return nil, fmt.Errorf("%w (lease advanced to epoch %d during claim)", ErrHeld, recheck.Epoch)
	}
	deadline := m.now().Add(m.ttl)
	if err := m.write(dir, Lease{Owner: m.node, Epoch: next, Deadline: deadline}); err != nil {
		return nil, fmt.Errorf("lease acquire: %w", err)
	}
	// Old lock files are garbage once superseded; best-effort cleanup keeps
	// the directory from accumulating one file per takeover.
	for k := next - 2; k > 0; k-- {
		if os.Remove(filepath.Join(dir, fmt.Sprintf("lease.%d.lock", k))) != nil {
			break
		}
	}
	return &Handle{m: m, dir: dir, epoch: next, deadline: deadline}, nil
}

// write publishes a lease atomically (temp + fsync + rename), so readers
// never observe a torn record.
func (m *Manager) write(dir string, l Lease) error {
	buf, err := json.Marshal(l)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ".lease-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), leasePath(dir))
}

// Handle is one node's live claim on a job. It is the fencing token carrier:
// the journal checks Valid before buffered appends and Verify at fsync
// boundaries, and the heartbeat calls Renew on a ticker — those callers run
// on different goroutines, so the handle locks around its validity state. A
// Handle that loses its lease is invalid forever.
type Handle struct {
	m     *Manager
	dir   string
	epoch int

	mu       sync.Mutex
	deadline time.Time
	invalid  bool
}

// Epoch returns the fencing token.
func (h *Handle) Epoch() int { return h.epoch }

// Owner returns the claiming node's ID.
func (h *Handle) Owner() string { return h.m.node }

// Deadline returns the lease deadline as of the last acquire/renew.
func (h *Handle) Deadline() time.Time {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.deadline
}

// Valid reports whether the handle has not observed losing its lease. It is
// the cheap, local fencing check; Verify is the authoritative one.
func (h *Handle) Valid() bool {
	if h == nil {
		return false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return !h.invalid
}

// Verify re-reads the lease from disk and confirms this handle still owns
// it. Any mismatch — newer epoch or claim lock, different owner, released —
// invalidates the handle and returns ErrFenced. A lease.json older than
// the handle's own epoch, whose lock names this node, is republished
// instead: a fenced owner's write overtook this handle's claim.
func (h *Handle) Verify() error {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.verifyLocked()
}

func (h *Handle) verifyLocked() error {
	if h.invalid {
		return fmt.Errorf("%w (epoch %d)", ErrFenced, h.epoch)
	}
	cur, err := h.m.Read(h.dir)
	if err != nil {
		return err
	}
	if h.m.claimedAbove(h.dir, h.epoch) {
		h.invalid = true
		return fmt.Errorf("%w (held epoch %d, newer claim lock)", ErrFenced, h.epoch)
	}
	if cur.Epoch < h.epoch && lockOwner(h.dir, h.epoch) == h.m.node {
		cur = Lease{Owner: h.m.node, Epoch: h.epoch, Deadline: h.deadline}
		if err := h.publishLocked(cur); err != nil {
			return err
		}
	}
	if cur.Epoch != h.epoch || cur.Owner != h.m.node || cur.Released {
		h.invalid = true
		return fmt.Errorf("%w (held epoch %d, current epoch %d owner %s)", ErrFenced, h.epoch, cur.Epoch, cur.Owner)
	}
	return nil
}

// publishLocked writes l as the lease and then checks for a claim lock
// above this handle's epoch. A takeover that locked and published between
// the caller's verify and this write has just been overwritten: the handle
// is fenced, and the newer owner republishes on its next verify.
func (h *Handle) publishLocked(l Lease) error {
	if err := h.m.write(h.dir, l); err != nil {
		h.invalid = true
		return fmt.Errorf("lease publish: %w", err)
	}
	if h.m.claimedAbove(h.dir, h.epoch) {
		h.invalid = true
		return fmt.Errorf("%w (held epoch %d, claim lock above it after write)", ErrFenced, h.epoch)
	}
	return nil
}

// Renew pushes the deadline forward by the manager's TTL, verifying the
// lease is still this handle's first. The "cluster.lease.renew" fault point
// makes a heartbeat lose its lease on demand; "cluster.lease.renew.write"
// sits between the verify and the write, where a takeover can land.
func (h *Handle) Renew() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if err := faults.Fire("cluster.lease.renew"); err != nil {
		h.invalid = true
		return fmt.Errorf("lease renew: %w", err)
	}
	if err := h.verifyLocked(); err != nil {
		return err
	}
	if err := faults.Fire("cluster.lease.renew.write"); err != nil {
		h.invalid = true
		return fmt.Errorf("lease renew: %w", err)
	}
	deadline := h.m.now().Add(h.m.ttl)
	if err := h.publishLocked(Lease{Owner: h.m.node, Epoch: h.epoch, Deadline: deadline}); err != nil {
		return fmt.Errorf("lease renew: %w", err)
	}
	h.deadline = deadline
	return nil
}

// Release gives the lease up deliberately, marking the job claimable
// without a deadline wait. Releasing a lease the handle no longer owns is a
// no-op: the newer owner's record must not be overwritten.
func (h *Handle) Release() {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.invalid || h.verifyLocked() != nil {
		return
	}
	h.invalid = true
	_ = h.m.write(h.dir, Lease{Owner: h.m.node, Epoch: h.epoch, Deadline: h.deadline, Released: true})
}

package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"confmask"
	"confmask/internal/cluster"
	"confmask/internal/faults"
)

// The journal makes confmaskd crash-safe. Every job owns a directory under
// <data-dir>/jobs/<job-id>/ holding:
//
//	journal.ndjson   append-only NDJSON: one "submitted" record carrying
//	                 the full request, then one "event" record per job
//	                 event (state transitions and stage progress)
//	checkpoint.json  the latest pipeline stage checkpoint (atomic
//	                 write-then-rename), enabling resume-from-stage
//	result.json      the anonymized configs + report of a done job
//	                 (atomic write-then-rename)
//
// The journal is fsync'd at state boundaries (submission, started,
// terminal events, requeue) and buffered in between: losing a progress
// event to a crash costs nothing — the job restarts or resumes anyway —
// while losing a state transition could strand or duplicate a job.
//
// The service reconciles every job directory at startup and again on every
// coordinator rescan (Server.reconcile): terminal jobs become queryable
// records, and queued/running/draining/requeued jobs no live foreign lease
// protects restart — from their last stage checkpoint when one exists.

// retryPolicy retries transient I/O with capped exponential backoff plus
// full jitter. All journal and checkpoint writes go through it.
type retryPolicy struct {
	attempts int           // total tries (≥ 1)
	base     time.Duration // backoff before the 2nd try
	cap      time.Duration // backoff ceiling
}

func defaultRetryPolicy() retryPolicy {
	return retryPolicy{attempts: 4, base: 25 * time.Millisecond, cap: time.Second}
}

// do runs f up to p.attempts times. Between tries it sleeps
// min(cap, base·2^k) scaled by a uniform jitter in [0.5, 1.0) — enough to
// de-synchronize retry storms without making tests slow or flaky.
func (p retryPolicy) do(label string, f func() error) error {
	if p.attempts < 1 {
		p.attempts = 1
	}
	var err error
	backoff := p.base
	for attempt := 1; ; attempt++ {
		if err = f(); err == nil {
			return nil
		}
		if attempt >= p.attempts {
			return fmt.Errorf("%s: %d attempts exhausted: %w", label, p.attempts, err)
		}
		sleep := backoff/2 + time.Duration(rand.Int63n(int64(backoff/2)+1))
		time.Sleep(sleep)
		backoff *= 2
		if backoff > p.cap {
			backoff = p.cap
		}
	}
}

// journalRecord is one NDJSON line of a job journal.
type journalRecord struct {
	// Type is "submitted" (first line, carries the request), "claim" (a
	// worker took lease ownership of the job), or "event".
	Type string    `json:"type"`
	Time time.Time `json:"time"`
	// Submission fields.
	ID      string   `json:"id,omitempty"`
	Hash    string   `json:"hash,omitempty"`
	Request *Request `json:"request,omitempty"`
	// Manifest content-addresses the submission's config files (file label
	// → sha256 hex), next to the whole-bundle Hash; incremental base
	// resolution diffs manifests across jobs.
	Manifest map[string]string `json:"manifest,omitempty"`
	// Event payload for Type == "event".
	Event *Event `json:"event,omitempty"`
	// Claim fields for Type == "claim": the owning node and its fencing
	// token. Replay drops event records whose LeaseEpoch predates the
	// newest claim — late writes from a fenced, possibly-frozen worker.
	Owner    string    `json:"owner,omitempty"`
	Epoch    int       `json:"epoch,omitempty"`
	Deadline time.Time `json:"deadline,omitempty"`
}

// resultDoc is the persisted form of a finished job's output.
type resultDoc struct {
	Configs map[string]string `json:"configs"`
	Report  *confmask.Report  `json:"report"`
}

// journal is the service-wide journal root.
type journal struct {
	root  string // <data-dir>/jobs
	retry retryPolicy
}

func openJournal(dataDir string, retry retryPolicy) (*journal, error) {
	root := filepath.Join(dataDir, "jobs")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	return &journal{root: root, retry: retry}, nil
}

func (jl *journal) jobDir(id string) string { return filepath.Join(jl.root, id) }

// discard deletes a job's directory — the undo for create when the job
// cannot actually be accepted (queue full, attach failure).
func (jl *journal) discard(id string) { _ = os.RemoveAll(jl.jobDir(id)) }

// create starts a job's journal: its directory plus the fsync'd submitted
// record. A failure here means the submission must be rejected — a job the
// journal cannot remember is a job a crash would silently lose.
func (jl *journal) create(id string, req *Request, hash string, created time.Time) (*jobJournal, error) {
	dir := jl.jobDir(id)
	jw := &jobJournal{jl: jl, dir: dir}
	err := jl.retry.do("journal create "+id, func() error {
		if err := faults.Fire("service.journal.create"); err != nil {
			return err
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		f, err := os.OpenFile(filepath.Join(dir, "journal.ndjson"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		jw.f = f
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := jw.append(journalRecord{Type: "submitted", Time: created, ID: id, Hash: hash, Request: req, Manifest: manifestOf(req.Configs)}, true); err != nil {
		jw.close()
		return nil, err
	}
	return jw, nil
}

// open reopens an existing job journal for appending (restart path).
func (jl *journal) open(id string) (*jobJournal, error) {
	dir := jl.jobDir(id)
	jw := &jobJournal{jl: jl, dir: dir}
	err := jl.retry.do("journal open "+id, func() error {
		f, err := os.OpenFile(filepath.Join(dir, "journal.ndjson"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		jw.f = f
		return nil
	})
	if err != nil {
		return nil, err
	}
	return jw, nil
}

// jobJournal appends one job's records. Append errors (after retries) are
// sticky: the job must fail — claiming durability while the journal is
// broken would be a lie — and Err surfaces the reason.
type jobJournal struct {
	jl  *journal
	dir string

	mu  sync.Mutex
	f   *os.File
	err error
	// fence, when set, gates every write on lease ownership: buffered
	// appends check the cheap local token (Valid), while fsync-boundary
	// appends, checkpoints, and results re-read the lease from disk
	// (Verify) — a frozen worker that lost its lease must not be able to
	// corrupt the new owner's journal with a late durable write.
	fence    *cluster.Handle
	onFenced func()
	fenced   bool
}

// Err returns the sticky failure, if any.
func (jw *jobJournal) Err() error {
	jw.mu.Lock()
	defer jw.mu.Unlock()
	return jw.err
}

// setFence attaches a lease handle to the journal. onFenced fires once,
// the first time a write is rejected for lost ownership (metrics hook).
func (jw *jobJournal) setFence(h *cluster.Handle, onFenced func()) {
	jw.mu.Lock()
	defer jw.mu.Unlock()
	jw.fence = h
	jw.onFenced = onFenced
}

// checkFenceLocked validates lease ownership before a write. Durable
// writes re-verify against disk; buffered ones trust the local token.
// A fence rejection is sticky: once ownership is lost every later write
// fails too, and the run unwinds as fenced.
func (jw *jobJournal) checkFenceLocked(durable bool) error {
	if jw.fence == nil {
		return nil
	}
	var err error
	if durable {
		err = jw.fence.Verify()
	} else if !jw.fence.Valid() {
		err = cluster.ErrFenced
	}
	if err == nil {
		return nil
	}
	if !jw.fenced {
		jw.fenced = true
		if jw.onFenced != nil {
			jw.onFenced()
		}
	}
	jw.err = fmt.Errorf("journal write rejected: %w", err)
	return jw.err
}

// appendClaim journals (fsync'd) that a lease owner took the job over.
// Replay uses the newest claim's epoch as the fencing floor for events.
func (jw *jobJournal) appendClaim(owner string, epoch int, deadline time.Time) error {
	return jw.append(journalRecord{Type: "claim", Time: time.Now().UTC(), Owner: owner, Epoch: epoch, Deadline: deadline}, true)
}

// append writes one NDJSON record, fsyncing when sync is set. Failures are
// retried per the policy and then remembered as the sticky error.
func (jw *jobJournal) append(rec journalRecord, sync bool) error {
	jw.mu.Lock()
	defer jw.mu.Unlock()
	if jw.err != nil {
		return jw.err
	}
	if jw.f == nil {
		jw.err = errors.New("journal closed")
		return jw.err
	}
	if err := jw.checkFenceLocked(sync); err != nil {
		return err
	}
	buf, err := json.Marshal(rec)
	if err != nil {
		jw.err = err
		return err
	}
	buf = append(buf, '\n')
	err = jw.jl.retry.do("journal append", func() error {
		if err := faults.Fire("service.journal.append"); err != nil {
			return err
		}
		_, err := jw.f.Write(buf)
		return err
	})
	if err != nil {
		jw.err = err
		return err
	}
	if sync {
		if err := jw.syncLocked(); err != nil {
			jw.err = err
			return err
		}
	}
	return nil
}

// appendEvent journals one job event. State-boundary events (anything with
// a message or an error — queued, started, terminal, requeued, draining)
// are fsync'd; bare progress events are buffered.
func (jw *jobJournal) appendEvent(e Event) error {
	boundary := e.Message != "" || e.Error != ""
	return jw.append(journalRecord{Type: "event", Time: e.Time, Event: &e}, boundary)
}

// syncLocked fsyncs the journal file. The "service.journal.sync" fault
// point can drop the fsync (ModeDrop): the write stays in the page cache,
// which is exactly the window a kill-and-restart chaos test wants open.
func (jw *jobJournal) syncLocked() error {
	if err := faults.Fire("service.journal.sync"); err != nil {
		if errors.Is(err, faults.ErrDropped) {
			return nil // fsync dropped: buffered write, no durability
		}
		return err
	}
	return jw.f.Sync()
}

// writeCheckpoint persists the latest stage checkpoint atomically
// (temp file, fsync, rename): a crash mid-write leaves the previous
// checkpoint intact, never a torn one.
func (jw *jobJournal) writeCheckpoint(cp *confmask.Checkpoint) error {
	jw.mu.Lock()
	if err := jw.checkFenceLocked(true); err != nil {
		jw.mu.Unlock()
		return err
	}
	jw.mu.Unlock()
	buf, err := json.Marshal(cp)
	if err != nil {
		return err
	}
	err = jw.jl.retry.do("checkpoint write", func() error {
		if err := faults.Fire("service.checkpoint.write"); err != nil {
			return err
		}
		return atomicWrite(filepath.Join(jw.dir, "checkpoint.json"), buf)
	})
	if err != nil {
		jw.mu.Lock()
		jw.err = err
		jw.mu.Unlock()
	}
	return err
}

// writeResult persists a done job's output atomically.
func (jw *jobJournal) writeResult(configs map[string]string, report *confmask.Report) error {
	jw.mu.Lock()
	if err := jw.checkFenceLocked(true); err != nil {
		jw.mu.Unlock()
		return err
	}
	jw.mu.Unlock()
	buf, err := json.Marshal(resultDoc{Configs: configs, Report: report})
	if err != nil {
		return err
	}
	return jw.jl.retry.do("result write", func() error {
		if err := faults.Fire("service.result.write"); err != nil {
			return err
		}
		return atomicWrite(filepath.Join(jw.dir, "result.json"), buf)
	})
}

func (jw *jobJournal) close() {
	jw.mu.Lock()
	defer jw.mu.Unlock()
	if jw.f != nil {
		_ = jw.f.Close()
		jw.f = nil
	}
}

// atomicWrite writes data to path via a same-directory temp file, fsync,
// and rename.
func atomicWrite(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
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
	return os.Rename(tmp.Name(), path)
}

// replayedJob is one job reconstructed from its directory.
type replayedJob struct {
	id      string
	hash    string
	req     *Request
	created time.Time
	events  []Event
	state   State
	stage   string
	iter    int
	errMsg  string
	// starts counts "started" events: how many times some process began
	// executing this job. The restart watchdog fails jobs whose count
	// exceeds the cap instead of crash-looping the daemon on poison input.
	starts int
	// owner / leaseEpoch mirror the newest claim record: which node most
	// recently took lease ownership of this job, and its fencing token.
	owner      string
	leaseEpoch int
	checkpoint *confmask.Checkpoint
	manifest   map[string]string
	result     map[string]string
	report     *confmask.Report
	// corrupt is set when the journal was unreadable; the job surfaces as
	// failed with the parse error instead of silently disappearing.
	corrupt bool
}

// replayOne reconstructs one job from its directory. A truncated final
// line — the signature of a crash mid-append — is tolerated and ignored.
func (jl *journal) replayOne(id string) *replayedJob {
	dir := jl.jobDir(id)
	rj := &replayedJob{id: id, state: StateQueued}
	data, err := os.ReadFile(filepath.Join(dir, "journal.ndjson"))
	if err != nil {
		rj.corrupt = true
		rj.errMsg = fmt.Sprintf("journal unreadable: %v", err)
		return rj
	}
	if !bytes.HasSuffix(data, []byte("\n")) {
		data = data[:bytes.LastIndexByte(data, '\n')+1] // torn tail from a crash mid-append
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64*1024), 256<<20)
	for n := 1; sc.Scan(); n++ {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			// A torn or corrupted interior line: everything before it is
			// trustworthy, everything after it is not.
			if rj.req == nil {
				rj.corrupt = true
				rj.errMsg = fmt.Sprintf("journal line %d corrupt: %v", n, err)
				return rj
			}
			break
		}
		switch rec.Type {
		case "submitted":
			rj.req = rec.Request
			rj.hash = rec.Hash
			rj.manifest = rec.Manifest
			rj.created = rec.Time
		case "claim":
			// The newest claim in file order is the current owner; O_APPEND
			// serializes records, so file order is claim order.
			rj.owner = rec.Owner
			rj.leaseEpoch = rec.Epoch
		case "event":
			if rec.Event == nil {
				continue
			}
			e := *rec.Event
			if e.LeaseEpoch > 0 && e.LeaseEpoch < rj.leaseEpoch {
				// A late buffered write from a fenced previous owner that
				// slipped in after the takeover's claim record: the new
				// owner's history is authoritative, so drop it.
				continue
			}
			rj.events = append(rj.events, e)
			rj.state = e.State
			if e.Stage != "" {
				rj.stage, rj.iter = e.Stage, e.Iteration
			}
			if e.State.Terminal() {
				rj.stage, rj.iter = "", 0
			}
			if e.Error != "" {
				rj.errMsg = e.Error
			}
			if e.Message == "started" {
				rj.starts++
			}
		}
	}
	if rj.req == nil {
		rj.corrupt = true
		if rj.errMsg == "" {
			rj.errMsg = "journal has no submitted record"
		}
		return rj
	}
	// Renumber: the torn-tail trim may have dropped events, and replayed
	// seq numbers must stay dense for streamers.
	for i := range rj.events {
		rj.events[i].Seq = i + 1
	}
	if cp, err := readCheckpoint(dir); err == nil {
		rj.checkpoint = cp
	}
	if rj.state == StateDone {
		if res, err := readResult(dir); err == nil {
			rj.result = res.Configs
			rj.report = res.Report
		} else {
			// Terminal "done" without a readable result: the job cannot
			// serve its output, so resurface it as failed.
			rj.state = StateFailed
			rj.errMsg = fmt.Sprintf("result lost: %v", err)
			rj.corrupt = true
		}
	}
	return rj
}

func readCheckpoint(dir string) (*confmask.Checkpoint, error) {
	data, err := os.ReadFile(filepath.Join(dir, "checkpoint.json"))
	if err != nil {
		return nil, err
	}
	var cp confmask.Checkpoint
	if err := json.Unmarshal(data, &cp); err != nil {
		return nil, err
	}
	return &cp, nil
}

func readResult(dir string) (*resultDoc, error) {
	data, err := os.ReadFile(filepath.Join(dir, "result.json"))
	if err != nil {
		return nil, err
	}
	var res resultDoc
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// jobSeq extracts the numeric sequence from a job ID ("j000042-..." → 42).
func jobSeq(id string) int {
	if !strings.HasPrefix(id, "j") {
		return 0
	}
	rest := id[1:]
	if dash := strings.IndexByte(rest, '-'); dash >= 0 {
		rest = rest[:dash]
	}
	n, err := strconv.Atoi(rest)
	if err != nil {
		return 0
	}
	return n
}

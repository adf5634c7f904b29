// Package service implements confmaskd's anonymization job service: an
// in-memory job store with content-hash deduplication, a bounded FIFO
// queue drained by a worker pool, per-job timeouts and cancellation, an
// NDJSON progress stream per job, and an HTTP/JSON API
// (POST /v1/jobs, GET /v1/jobs/{id}, GET /v1/jobs/{id}/events,
// GET /v1/jobs/{id}/result, DELETE /v1/jobs/{id}, GET /healthz,
// GET /metrics).
//
// The service runs the same pipeline as the library — each job is one
// confmask.AnonymizeContext call — so a daemon result is byte-identical
// to an in-process run with the same configs, options, and seed.
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"confmask"
)

// State is a job lifecycle state. Transitions:
//
//	queued → running → done | failed | cancelled
//	queued → cancelled            (cancelled before a worker picked it up)
//	running → draining → requeued (graceful drain with a journal: the job
//	                               resumes after the next daemon start)
//	queued → requeued             (drain with a journal, job never ran)
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
	// StateDraining marks a running job whose daemon is shutting down; its
	// pipeline is being stopped so the job can requeue durably.
	StateDraining State = "draining"
	// StateRequeued is terminal for this process: the job is journaled and
	// will re-enter the queue when a daemon next opens the same data dir.
	StateRequeued State = "requeued"
)

// Terminal reports whether no further transitions can happen in this
// process. Requeued counts: the job only moves again after a restart.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled || s == StateRequeued
}

// Request is the POST /v1/jobs payload: the configuration bundle to
// anonymize plus pipeline options. Equal requests (same configs, same
// options — including the seed) hash identically and dedup to one job.
type Request struct {
	Configs map[string]string `json:"configs"`
	Options confmask.Options  `json:"options"`
	// BaseJob requests incremental anonymization: the ID of a completed
	// job this submission is an edit of, or "auto" to discover the best
	// base by per-device manifest overlap. When the edit turns out to be
	// decision-identical (see confmask.ImportCheckpoint), the worker seeds
	// the pipeline from the base job's checkpoint and skips every stage it
	// covers; otherwise the job falls back to a full run with an event
	// naming the reason. Deliberately excluded from the dedup hash: the
	// base only changes how the result is computed, never what it is.
	BaseJob string `json:"base_job,omitempty"`
	// Tenant is the submitting tenant, taken from the X-Tenant header
	// (never from the request body — the server overwrites whatever the
	// client put here). Persisted in the journal's submitted record so a
	// replayed job rejoins its tenant's queue.
	Tenant string `json:"tenant,omitempty"`
}

// manifestOf content-addresses each config file of a bundle: file label →
// sha256 hex of its text. Submissions store it in the journal next to the
// bundle hash; manifest diffs give the edited-device set for incremental
// base resolution.
func manifestOf(configs map[string]string) map[string]string {
	m := make(map[string]string, len(configs))
	for name, text := range configs {
		sum := sha256.Sum256([]byte(text))
		m[name] = hex.EncodeToString(sum[:])
	}
	return m
}

// manifestOverlap counts the (file, content-hash) pairs two manifests
// share.
func manifestOverlap(a, b map[string]string) int {
	n := 0
	for name, sum := range a {
		if b[name] == sum {
			n++
		}
	}
	return n
}

// hash returns the content hash used for job deduplication: a sha256 over
// the sorted configuration files and the JSON encoding of the options
// (Options.Progress is a func and excluded from JSON, so it cannot affect
// the hash).
func (r *Request) hash() string {
	h := sha256.New()
	names := make([]string, 0, len(r.Configs))
	for name := range r.Configs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(h, "%d:%s%d:%s", len(name), name, len(r.Configs[name]), r.Configs[name])
	}
	opts, _ := json.Marshal(r.Options)
	h.Write(opts)
	return hex.EncodeToString(h.Sum(nil))
}

// Event is one record of a job's NDJSON progress stream: a state
// transition, a pipeline stage transition, or an Algorithm 1 iteration.
type Event struct {
	// Seq numbers events per job from 1; clients resume a dropped stream
	// with ?after=<seq>.
	Seq  int       `json:"seq"`
	Time time.Time `json:"time"`
	// State is the job state at the time of the event.
	State State `json:"state"`
	// Stage is the pipeline stage ("preprocess", "topology",
	// "equivalence", "anonymity", "render") for progress events.
	Stage string `json:"stage,omitempty"`
	// Iteration is the Algorithm 1 / strawman fixing iteration (≥ 1) for
	// "equivalence" progress events.
	Iteration int `json:"iteration,omitempty"`
	// PrevStage and PrevStageMS report the just-completed stage and its
	// wall-clock duration, on the event that closes it: the next stage's
	// progress event, or the terminal event for the last stage. Together
	// with the /metrics stage histograms they give per-stage timing
	// without diffing event timestamps.
	PrevStage   string `json:"prev_stage,omitempty"`
	PrevStageMS int64  `json:"prev_stage_ms,omitempty"`
	// PrevStageAllocBytes is the heap allocated while PrevStage ran
	// (process-wide TotalAlloc delta; concurrent jobs share the counter,
	// so treat it as attribution only on an otherwise idle daemon).
	PrevStageAllocBytes uint64 `json:"prev_stage_alloc_bytes,omitempty"`
	// Message annotates non-progress events ("queued", "cancel
	// requested", ...).
	Message string `json:"message,omitempty"`
	// Error carries the failure reason on the terminal event of a failed
	// job.
	Error string `json:"error,omitempty"`
	// BaseJob and ReusedStages appear on the event announcing that the job
	// was seeded from another job's checkpoint: the base job's ID and the
	// pipeline stages the seed lets this job skip.
	BaseJob      string   `json:"base_job,omitempty"`
	ReusedStages []string `json:"reused_stages,omitempty"`
	// Tenant, Owner, and LeaseEpoch identify whose job this is and which
	// node wrote the event under which fencing epoch. Events written
	// before any claim carry epoch 0; replay discards events whose epoch
	// predates a later claim (a fenced-out owner's late writes).
	Tenant     string `json:"tenant,omitempty"`
	Owner      string `json:"owner,omitempty"`
	LeaseEpoch int    `json:"lease_epoch,omitempty"`
}

// Status is the GET /v1/jobs/{id} document: a point-in-time snapshot of a
// job.
type Status struct {
	ID        string     `json:"id"`
	State     State      `json:"state"`
	InputHash string     `json:"input_hash"`
	Devices   int        `json:"devices"`
	Stage     string     `json:"stage,omitempty"`
	Iteration int        `json:"iteration,omitempty"`
	Created   time.Time  `json:"created"`
	Started   *time.Time `json:"started,omitempty"`
	Finished  *time.Time `json:"finished,omitempty"`
	Error     string     `json:"error,omitempty"`
	// Restarts counts how many daemon starts have executed this job before
	// the current one (0 for a job born in this process).
	Restarts int `json:"restarts,omitempty"`
	// Tenant is the submitting tenant; Owner and LeaseEpoch name the node
	// holding (or last holding) the job's lease and its fencing epoch.
	Tenant     string `json:"tenant,omitempty"`
	Owner      string `json:"owner,omitempty"`
	LeaseEpoch int    `json:"lease_epoch,omitempty"`
	// BaseJob and ReusedStages identify the completed job whose checkpoint
	// seeded this one and the stages that seed skipped (incremental
	// resubmission; absent for full runs).
	BaseJob      string   `json:"base_job,omitempty"`
	ReusedStages []string `json:"reused_stages,omitempty"`
	// Report is present once the job is done.
	Report *confmask.Report `json:"report,omitempty"`
}

// job is the store's internal record. All fields behind mu; events grows
// append-only so streamers can hold an index into it across unlocks.
type job struct {
	mu      sync.Mutex
	changed chan struct{} // closed+replaced on every mutation (broadcast)

	id      string
	hash    string
	req     *Request
	devices int

	state     State
	stage     string
	iteration int
	events    []Event

	created  time.Time
	started  time.Time
	finished time.Time

	result map[string]string
	report *confmask.Report
	errMsg string

	// cancelRequested is set by DELETE; a queued job dies before running,
	// a running job's pipeline context is cancelled via cancel.
	cancelRequested bool
	cancel          func()

	// jw journals every event when the service runs with a data dir.
	jw *jobJournal
	// resume holds the stage checkpoint recovered from the journal or
	// imported from a base job; the worker hands it to the pipeline so the
	// job skips the stages it covers.
	resume *confmask.Checkpoint
	// manifest content-addresses the request's config files (file label →
	// sha256 hex); incremental base resolution diffs manifests to find the
	// edited devices.
	manifest map[string]string
	// lastCP is the newest checkpoint the pipeline emitted (or replay
	// recovered); completed jobs keep it so later submissions can seed
	// from it.
	lastCP *confmask.Checkpoint
	// baseJob and reusedStages record a successful incremental seed for
	// status reporting.
	baseJob      string
	reusedStages []string
	// restarts counts prior daemon starts that executed this job.
	restarts int
	// draining marks a job cancelled by a graceful drain (not by a user);
	// the worker classifies the resulting context.Canceled as requeued.
	draining bool
	// tombstone marks a job replayed from a corrupt journal whose output
	// is unrecoverable; result and query endpoints answer 410 Gone so
	// clients can tell "lost" from "never existed". Immutable after
	// replay.
	tombstone bool
	// tenant routes the job through its tenant's scheduler queue; never
	// empty (absent X-Tenant maps to "default").
	tenant string
	// owner and leaseEpoch mirror the job's current (or last known) lease:
	// every event appended while they are set carries them, which is what
	// lets replay fence out a stale owner's late writes.
	owner      string
	leaseEpoch int
	// queued marks the job as sitting in the scheduler, so the coordinator
	// rescan never double-enqueues it.
	queued bool
	// clock times the open pipeline stage of the current run; start resets
	// it and the terminal event closes it.
	clock stageTimer
}

// normalizeTenant maps the empty tenant (pre-fleet journals, direct
// construction) to the default tenant.
func normalizeTenant(t string) string {
	if t == "" {
		return DefaultTenant
	}
	return t
}

func newJob(id string, req *Request, now time.Time) *job {
	j := &job{
		id:       id,
		hash:     req.hash(),
		req:      req,
		devices:  len(req.Configs),
		state:    StateQueued,
		created:  now,
		changed:  make(chan struct{}),
		manifest: manifestOf(req.Configs),
		tenant:   normalizeTenant(req.Tenant),
	}
	j.appendEventLocked(Event{State: StateQueued, Message: "queued", Time: now})
	return j
}

// appendEventLocked numbers and stores an event, journals it when a
// journal is attached, and wakes streamers. The caller must hold mu (or,
// for newJob, be the only reference holder). Journal append failures are
// sticky inside the jobJournal; the worker surfaces them as a job failure
// rather than blocking the event path here.
func (j *job) appendEventLocked(e Event) {
	e.Seq = len(j.events) + 1
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	// Stamp tenancy and ownership: the lease epoch on the journaled copy
	// is what lets replay discard a fenced-out owner's late writes.
	if e.Tenant == "" {
		e.Tenant = j.tenant
	}
	if e.Owner == "" && j.owner != "" {
		e.Owner, e.LeaseEpoch = j.owner, j.leaseEpoch
	}
	j.events = append(j.events, e)
	if j.jw != nil {
		_ = j.jw.appendEvent(e)
	}
	close(j.changed)
	j.changed = make(chan struct{})
}

// attachJournal starts journaling the job, first writing the events that
// accumulated before attachment (the "queued" event at minimum).
func (j *job) attachJournal(jw *jobJournal) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, e := range j.events {
		if err := jw.appendEvent(e); err != nil {
			return err
		}
	}
	j.jw = jw
	return nil
}

// journalErr reports the job journal's sticky failure, nil when the job is
// not journaled or the journal is healthy.
func (j *job) journalErr() error {
	j.mu.Lock()
	jw := j.jw
	j.mu.Unlock()
	if jw == nil {
		return nil
	}
	return jw.Err()
}

// newJobFromReplay rebuilds a job from its journal: the identity fields
// here, everything a later replay can change through adoptReplay. The
// replayed event history is kept verbatim so streamers see the job's full
// life across restarts.
func newJobFromReplay(rj *replayedJob) *job {
	j := &job{
		id:       rj.id,
		hash:     rj.hash,
		req:      rj.req,
		created:  rj.created,
		changed:  make(chan struct{}),
		manifest: rj.manifest,
		tenant:   DefaultTenant,
		// A corrupt journal with a still-readable result can serve its
		// output; anything else corrupt cannot, ever again.
		tombstone: rj.corrupt && rj.result == nil,
	}
	if rj.req != nil {
		j.devices = len(rj.req.Configs)
		j.tenant = normalizeTenant(rj.req.Tenant)
		if j.hash == "" {
			j.hash = rj.req.hash()
		}
		if j.manifest == nil {
			j.manifest = manifestOf(rj.req.Configs)
		}
	}
	j.adoptReplay(rj)
	return j
}

// reattachJournal resumes journaling on an already-journaled job (replay
// path): unlike attachJournal it does not rewrite history, because the
// journal on disk already holds it.
func (j *job) reattachJournal(jw *jobJournal) {
	j.mu.Lock()
	j.jw = jw
	j.mu.Unlock()
}

// journalHandle returns the attached journal, nil when none.
func (j *job) journalHandle() *jobJournal {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.jw
}

// markRecovered returns a replayed job to the queued state and records the
// recovery on its (already reattached) journal. Any prior lease stamp is
// void: ownership restarts with the next claim.
func (j *job) markRecovered() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = StateQueued
	j.stage, j.iteration = "", 0
	j.cancelRequested = false
	j.cancel = nil
	j.draining = false
	j.owner, j.leaseEpoch = "", 0
	msg := fmt.Sprintf("recovered: requeued by daemon restart %d", j.restarts)
	if j.resume != nil {
		msg += ", resuming after " + j.resume.Stage + " checkpoint"
	}
	j.appendEventLocked(Event{State: StateQueued, Message: msg})
}

// setLease stamps the job with its claimed lease; every event from here to
// the terminal one carries the owner and fencing epoch.
func (j *job) setLease(owner string, epoch int) {
	j.mu.Lock()
	j.owner, j.leaseEpoch = owner, epoch
	j.mu.Unlock()
}

// setInQueue flags whether the job sits in the scheduler.
func (j *job) setInQueue(v bool) {
	j.mu.Lock()
	j.queued = v
	j.mu.Unlock()
}

// inQueue reports whether the job sits in the scheduler.
func (j *job) inQueue() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.queued
}

// adoptReplay sets a job's replayable state from its journal — for a new
// record, or in place for a known job another node progressed or finished.
// The in-place update (same *job, same changed-channel protocol) keeps
// local event streamers attached across the adoption. Callers never adopt
// into a job queued, running, or finished here: reconcile skips those.
func (j *job) adoptReplay(rj *replayedJob) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if len(rj.events) < len(j.events) {
		// The disk replay is behind what this node already saw (a racing
		// append); adopting it would rewind streamers.
		return
	}
	j.state = rj.state
	j.stage, j.iteration = rj.stage, rj.iter
	j.events = rj.events
	j.errMsg = rj.errMsg
	j.restarts = rj.starts
	j.owner, j.leaseEpoch = rj.owner, rj.leaseEpoch
	if rj.checkpoint != nil {
		j.resume, j.lastCP = rj.checkpoint, rj.checkpoint
	}
	if rj.result != nil {
		j.result, j.report = rj.result, rj.report
	}
	for _, e := range rj.events {
		switch {
		case e.Message == "started" && j.started.IsZero():
			j.started = e.Time
		case e.State.Terminal():
			j.finished = e.Time
		}
		if e.BaseJob != "" {
			j.baseJob, j.reusedStages = e.BaseJob, e.ReusedStages
		}
	}
	close(j.changed)
	j.changed = make(chan struct{})
}

// noteDraining flags the job as being stopped by a graceful drain and
// emits the draining event. No-op once terminal.
func (j *job) noteDraining() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() || j.draining {
		return
	}
	j.draining = true
	if j.state == StateRunning {
		j.state = StateDraining
	}
	j.appendEventLocked(Event{State: j.state, Message: "draining: daemon shutting down"})
}

// isTombstone reports whether the job's output was lost to journal
// corruption (set only before the store publishes a replayed job, so no
// lock is needed).
func (j *job) isTombstone() bool { return j.tombstone }

// setResume makes cp the checkpoint the next run resumes from, and the
// newest one the job retains.
func (j *job) setResume(cp *confmask.Checkpoint) {
	j.mu.Lock()
	j.resume, j.lastCP = cp, cp
	j.mu.Unlock()
}

// resumePoint returns the checkpoint the next run resumes from, nil when
// it starts from scratch.
func (j *job) resumePoint() *confmask.Checkpoint {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.resume
}

// setLastCheckpoint retains the newest pipeline checkpoint in memory so the
// job can later serve as an incremental base even without a journal.
func (j *job) setLastCheckpoint(cp *confmask.Checkpoint) {
	j.mu.Lock()
	j.lastCP = cp
	j.mu.Unlock()
}

// lastCheckpoint returns the newest retained checkpoint, nil when none.
func (j *job) lastCheckpoint() *confmask.Checkpoint {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.lastCP
}

// noteIncremental records a successful incremental seed: the base job, the
// stages its checkpoint lets this job skip, and the edited devices, as both
// job state and a journaled event (Message non-empty → fsync boundary, so
// the seed decision is durable before the pipeline starts).
func (j *job) noteIncremental(baseID string, stages, edited []string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.baseJob, j.reusedStages = baseID, stages
	j.appendEventLocked(Event{
		State:        j.state,
		BaseJob:      baseID,
		ReusedStages: stages,
		Message: fmt.Sprintf("incremental: reusing stages %v from base job %s (%d device(s) edited: %v)",
			stages, baseID, len(edited), edited),
	})
}

// noteIncrementalFallback records that a requested incremental seed could
// not be used and the job is running in full, with the reason.
func (j *job) noteIncrementalFallback(reason string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.appendEventLocked(Event{
		State:   j.state,
		Message: "incremental: falling back to full run: " + reason,
	})
}

// isDraining reports whether the job is being drained.
func (j *job) isDraining() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.draining
}

// setProgress records a pipeline stage transition as an event; the event
// that opens a new stage also closes the previous stage's clock.
func (j *job) setProgress(stage string, iteration int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return // a late callback after cancellation; drop it
	}
	j.stage, j.iteration = stage, iteration
	e := Event{State: j.state, Stage: stage, Iteration: iteration}
	j.clock.transition(&e, stage, time.Now())
	j.appendEventLocked(e)
}

// start transitions queued → running with a fresh stage clock feeding m's
// stage histograms. It returns false, changing nothing, when the job was
// cancelled while still in the queue.
func (j *job) start(cancel func(), m *metrics) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.cancelRequested {
		return false
	}
	j.state = StateRunning
	j.started = time.Now()
	j.cancel = cancel
	j.clock = stageTimer{m: m}
	j.appendEventLocked(Event{State: StateRunning, Message: "started", Time: j.started})
	return true
}

// finish records a terminal outcome; its event closes the last open
// pipeline stage. Server.settle is the only caller.
func (j *job) finish(o outcome, result map[string]string, report *confmask.Report) {
	j.mu.Lock()
	defer j.mu.Unlock()
	now := time.Now()
	j.state = o.state
	j.finished = now
	j.result = result
	j.report = report
	j.errMsg = o.reason
	j.stage, j.iteration = "", 0
	j.cancel = nil
	e := Event{State: o.state, Time: now}
	j.clock.transition(&e, "", now)
	switch o.state {
	case StateDone:
		e.Message = "done"
	case StateCancelled:
		e.Message = "cancelled"
		if o.reason == cancelledBeforeStart {
			e.Message = o.reason
		}
	case StateRequeued:
		e.Message = "requeued: will resume at next daemon start"
	default:
		e.Error = o.reason
	}
	j.appendEventLocked(e)
}

// requestCancel marks the job for cancellation. It reports whether the
// request was accepted (false once the job is already terminal).
func (j *job) requestCancel() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return false
	}
	if !j.cancelRequested {
		j.cancelRequested = true
		j.appendEventLocked(Event{State: j.state, Message: "cancel requested"})
		if j.cancel != nil {
			j.cancel()
		}
	}
	return true
}

// cancelPipeline cancels the job's running pipeline context without
// setting cancelRequested — the drain path, where the stop is the
// daemon's doing and the job must classify as requeued, not cancelled.
func (j *job) cancelPipeline() {
	j.mu.Lock()
	c := j.cancel
	j.mu.Unlock()
	if c != nil {
		c()
	}
}

// status snapshots the job for the API.
func (j *job) status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:         j.id,
		State:      j.state,
		InputHash:  j.hash,
		Devices:    j.devices,
		Stage:      j.stage,
		Iteration:  j.iteration,
		Created:    j.created,
		Error:      j.errMsg,
		Report:     j.report,
		Restarts:   j.restarts,
		Tenant:     j.tenant,
		Owner:      j.owner,
		LeaseEpoch: j.leaseEpoch,
	}
	st.BaseJob = j.baseJob
	st.ReusedStages = append([]string(nil), j.reusedStages...)
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	return st
}

// eventsSince returns the events after seq, the current state, and a
// channel closed on the next mutation — everything a streamer needs to
// replay and then follow without busy-waiting.
func (j *job) eventsSince(seq int) ([]Event, State, <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	var out []Event
	if seq < len(j.events) {
		out = append(out, j.events[seq:]...)
	}
	return out, j.state, j.changed
}

// store is the in-memory job index with dedup by (tenant, request content
// hash) — tenants never dedup into each other's jobs, which would leak
// one tenant's job IDs and results to another.
type store struct {
	mu     sync.Mutex
	jobs   map[string]*job
	byHash map[string]string // tenant + "\x00" + request hash → job ID
	seq    int
}

func newStore() *store {
	return &store{jobs: make(map[string]*job), byHash: make(map[string]string)}
}

// dedupKey scopes the content hash to a tenant.
func dedupKey(tenant, hash string) string { return tenant + "\x00" + hash }

// add registers a job for req, deduplicating against the tenant's live
// jobs: when a queued, running, or done job exists for the same tenant and
// content hash, that job is returned with existing=true. Failed and
// cancelled jobs do not block resubmission.
func (s *store) add(req *Request, now time.Time) (j *job, existing bool) {
	hash := req.hash()
	key := dedupKey(normalizeTenant(req.Tenant), hash)
	s.mu.Lock()
	defer s.mu.Unlock()
	if id, ok := s.byHash[key]; ok {
		return s.jobs[id], true
	}
	s.seq++
	id := fmt.Sprintf("j%06d-%s", s.seq, hash[:8])
	j = newJob(id, req, now)
	s.jobs[id] = j
	s.byHash[key] = id
	return j, false
}

// put registers a replayed job under its original ID, keeping the dedup
// index consistent: done, queued, and running-again jobs reclaim their
// hash so resubmissions dedup across restarts; failed and cancelled jobs
// do not. The seq counter advances past the replayed ID so new jobs never
// collide with journaled ones.
func (s *store) put(j *job, indexHash bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.jobs[j.id] = j
	if indexHash && j.hash != "" {
		s.byHash[dedupKey(j.tenant, j.hash)] = j.id
	}
	if n := jobSeq(j.id); n > s.seq {
		s.seq = n
	}
}

// get looks a job up by ID.
func (s *store) get(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// remove deletes a job entirely (used when enqueueing fails after add).
func (s *store) remove(j *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.jobs, j.id)
	key := dedupKey(j.tenant, j.hash)
	if s.byHash[key] == j.id {
		delete(s.byHash, key)
	}
}

// unindexHash drops the dedup entry of a failed or cancelled job so an
// identical resubmission starts fresh; the job itself stays queryable.
func (s *store) unindexHash(j *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := dedupKey(j.tenant, j.hash)
	if s.byHash[key] == j.id {
		delete(s.byHash, key)
	}
}

// closeJournals closes every attached job journal (end of Shutdown).
func (s *store) closeJournals() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range s.jobs {
		j.mu.Lock()
		if j.jw != nil {
			j.jw.close()
			j.jw = nil
		}
		j.mu.Unlock()
	}
}

// all snapshots every job (auto-base scanning).
func (s *store) all() []*job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, j)
	}
	return out
}

// list returns every job's status, newest first.
func (s *store) list() []Status {
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	out := make([]Status, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.status())
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID > out[b].ID })
	return out
}

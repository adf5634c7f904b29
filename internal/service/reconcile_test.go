package service

// Reconcile: the one decision startup replay and the coordinator rescan
// share about each journaled job. The tests below hand-write job
// directories — journal records, lease, checkpoint, result — so each
// on-disk situation is exact, and drive the rescan through Rescan.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"confmask/internal/cluster"
	"confmask/internal/faults"
)

// jobFiles is one hand-written job directory. A nil lease leaves
// lease.json absent; raw, when set, replaces the whole journal.
type jobFiles struct {
	recs   []journalRecord
	raw    string
	lease  *cluster.Lease
	extras map[string]string // file name → content (checkpoint, result)
}

// writeJobDir writes f as job id's directory under root/jobs.
func writeJobDir(t *testing.T, root, id string, f jobFiles) {
	t.Helper()
	dir := filepath.Join(root, "jobs", id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	journal := []byte(f.raw)
	for _, r := range f.recs {
		line, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		journal = append(append(journal, line...), '\n')
	}
	files := map[string]string{"journal.ndjson": string(journal)}
	if f.lease != nil {
		buf, err := json.Marshal(f.lease)
		if err != nil {
			t.Fatal(err)
		}
		files["lease.json"] = string(buf)
	}
	for name, body := range f.extras {
		files[name] = body
	}
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// journalOf builds a job journal: the submitted record, then one event
// record per event (a claim record where the event is the claim marker).
func journalOf(id string, req *Request, events ...Event) []journalRecord {
	now := time.Now().UTC()
	recs := []journalRecord{{Type: "submitted", Time: now, ID: id, Hash: req.hash(), Request: req}}
	for i, e := range events {
		e.Seq, e.Time = i+1, now
		if e.Message == "claim" {
			recs = append(recs, journalRecord{Type: "claim", Time: now, Owner: e.Owner, Epoch: e.LeaseEpoch, Deadline: now.Add(time.Hour)})
			continue
		}
		recs = append(recs, journalRecord{Type: "event", Time: now, Event: &e})
	}
	return recs
}

var (
	evQueued  = Event{State: StateQueued, Message: "queued"}
	evClaimX  = Event{Message: "claim", Owner: "node-x", LeaseEpoch: 1}
	evStarted = Event{State: StateRunning, Message: "started", Owner: "node-x", LeaseEpoch: 1}
)

func liveLease() *cluster.Lease {
	return &cluster.Lease{Owner: "node-x", Epoch: 1, Deadline: time.Now().Add(time.Hour)}
}

func expiredLease() *cluster.Lease {
	return &cluster.Lease{Owner: "node-x", Epoch: 1, Deadline: time.Now().Add(-time.Hour)}
}

// jobStatus reads a job's status straight from the server's store.
func jobStatus(t *testing.T, s *Server, id string) Status {
	t.Helper()
	j, ok := s.store.get(id)
	if !ok {
		t.Fatalf("job %s unknown to node %s", id, s.NodeID())
	}
	return j.status()
}

// TestReplayMatchesRescan writes the same job directories twice: once
// before Open, once under an already-open server that then rescans. Both
// paths must reach the same per-job state, reason, restart count, and
// lease stamp — startup replay and rescan are one reconcile decision.
func TestReplayMatchesRescan(t *testing.T) {
	t.Cleanup(faults.Reset)
	// Requeued jobs must hold still for the comparison: refusing every
	// lease claim leaves them queued instead of running.
	faults.Arm("cluster.lease.acquire", faults.Injection{Mode: faults.ModeError, Message: "claims refused"})
	cases := []struct {
		name      string
		files     func(id string, req *Request) jobFiles
		want      State
		wantError string
	}{
		{"done", func(id string, req *Request) jobFiles {
			return jobFiles{
				recs:   journalOf(id, req, evQueued, Event{State: StateRunning, Message: "started"}, Event{State: StateDone, Message: "done"}),
				extras: map[string]string{"result.json": `{"configs":{"r1":"hostname r1\n"},"report":null}`},
			}
		}, StateDone, ""},
		{"failed", func(id string, req *Request) jobFiles {
			return jobFiles{recs: journalOf(id, req, evQueued, Event{State: StateRunning, Message: "started"}, Event{State: StateFailed, Error: "boom"})}
		}, StateFailed, "boom"},
		{"corrupt tombstone", func(id string, req *Request) jobFiles {
			return jobFiles{raw: "not ndjson at all\n"}
		}, StateFailed, "corrupt"},
		{"done, result lost", func(id string, req *Request) jobFiles {
			return jobFiles{recs: journalOf(id, req, evQueued, Event{State: StateRunning, Message: "started"}, Event{State: StateDone, Message: "done"})}
		}, StateFailed, "result lost"},
		{"live foreign lease", func(id string, req *Request) jobFiles {
			return jobFiles{recs: journalOf(id, req, evQueued, evClaimX, evStarted), lease: liveLease()}
		}, StateRunning, ""},
		{"expired lease with checkpoint", func(id string, req *Request) jobFiles {
			return jobFiles{
				recs:   journalOf(id, req, evQueued, evClaimX, evStarted),
				lease:  expiredLease(),
				extras: map[string]string{"checkpoint.json": `{"stage":"topology","configs":{},"rng_draws":0,"report":null}`},
			}
		}, StateQueued, ""},
		{"poison", func(id string, req *Request) jobFiles {
			return jobFiles{recs: journalOf(id, req, evQueued, evClaimX, evStarted, evStarted, evStarted), lease: expiredLease()}
		}, StateFailed, "giving up"},
	}
	ids := make([]string, len(cases))
	reqs := make([]*Request, len(cases))
	for i := range cases {
		reqs[i] = testRequest(t, int64(400+i))
		ids[i] = fmt.Sprintf("j%06d-%s", i+1, reqs[i].hash()[:8])
	}
	writeAll := func(root string) {
		for i, c := range cases {
			writeJobDir(t, root, ids[i], c.files(ids[i], reqs[i]))
		}
	}
	cfg := Config{Workers: 1, NodeID: "node-a", RescanInterval: time.Hour, MaxRestarts: 3}

	startupDir := t.TempDir()
	writeAll(startupDir)
	cfg.DataDir = startupDir
	atStartup, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer atStartup.Shutdown(context.Background())

	rescanDir := t.TempDir()
	cfg.DataDir = rescanDir
	onRescan, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer onRescan.Shutdown(context.Background())
	writeAll(rescanDir)
	onRescan.Rescan()

	for i, c := range cases {
		a, b := jobStatus(t, atStartup, ids[i]), jobStatus(t, onRescan, ids[i])
		// Reasons may name files in their own data dir.
		a.Error = strings.ReplaceAll(a.Error, startupDir, "<dir>")
		b.Error = strings.ReplaceAll(b.Error, rescanDir, "<dir>")
		if a.State != c.want || !strings.Contains(a.Error, c.wantError) {
			t.Errorf("%s: startup replay gave %s (%q), want %s (%q)", c.name, a.State, a.Error, c.want, c.wantError)
		}
		if a.State != b.State || a.Error != b.Error || a.Restarts != b.Restarts || a.Owner != b.Owner || a.LeaseEpoch != b.LeaseEpoch {
			t.Errorf("%s: startup replay and rescan disagree:\n  startup %s %q restarts=%d owner=%q epoch=%d\n  rescan  %s %q restarts=%d owner=%q epoch=%d",
				c.name, a.State, a.Error, a.Restarts, a.Owner, a.LeaseEpoch, b.State, b.Error, b.Restarts, b.Owner, b.LeaseEpoch)
		}
	}
}

// TestClusterRescanGivesUpPoisonJob is the takeover of a poison job: one
// that already ran in MaxRestarts daemon starts and whose owner's lease
// then expires. The rescan must fail it for good, durably — whether this
// node already knew the job (registered read-only while the lease was
// live) or first sees it on the rescan.
func TestClusterRescanGivesUpPoisonJob(t *testing.T) {
	for _, known := range []bool{true, false} {
		t.Run(fmt.Sprintf("known=%v", known), func(t *testing.T) {
			dir := t.TempDir()
			req := testRequest(t, 311)
			id := "j000001-" + req.hash()[:8]
			files := jobFiles{recs: journalOf(id, req, evQueued, evClaimX, evStarted, evStarted, evStarted), lease: liveLease()}
			if known {
				writeJobDir(t, dir, id, files)
			}
			s, err := Open(Config{Workers: 1, DataDir: dir, NodeID: "node-a", RescanInterval: time.Hour, MaxRestarts: 3})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Shutdown(context.Background())
			if known {
				if st := jobStatus(t, s, id); st.State != StateRunning {
					t.Fatalf("job under a live foreign lease replayed to %s, want running", st.State)
				}
			}
			files.lease = expiredLease()
			writeJobDir(t, dir, id, files)
			s.Rescan()

			st := jobStatus(t, s, id)
			if st.State != StateFailed || !strings.Contains(st.Error, "giving up") {
				t.Fatalf("poison job after rescan: %s (%q), want failed, giving up", st.State, st.Error)
			}
			if rj := s.journal.replayOne(id); rj.state != StateFailed {
				t.Fatalf("give-up not journaled: journal replays to %s", rj.state)
			}
			// A daemon with a higher restart cap would run the job again
			// unless the failure is on disk.
			s2, err := Open(Config{Workers: 1, DataDir: dir, NodeID: "node-b", RescanInterval: time.Hour, MaxRestarts: 10})
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Shutdown(context.Background())
			if st := jobStatus(t, s2, id); st.State != StateFailed || !strings.Contains(st.Error, "giving up") {
				t.Fatalf("fresh Open sees poison job as %s (%q), want failed, giving up", st.State, st.Error)
			}
		})
	}
}

// TestClusterRescanAdoptsPeerFinish registers a job another node is
// running (live lease), lets that node finish it on disk, and asserts the
// rescan adopts the terminal record: status and result answer here too.
func TestClusterRescanAdoptsPeerFinish(t *testing.T) {
	dir := t.TempDir()
	req := testRequest(t, 321)
	id := "j000001-" + req.hash()[:8]
	files := jobFiles{recs: journalOf(id, req, evQueued, evClaimX, evStarted), lease: liveLease()}
	writeJobDir(t, dir, id, files)
	s, err := Open(Config{Workers: 1, DataDir: dir, NodeID: "node-a", RescanInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	if st := jobStatus(t, s, id); st.State != StateRunning {
		t.Fatalf("job under a live foreign lease replayed to %s, want running", st.State)
	}

	files.recs = journalOf(id, req, evQueued, evClaimX, evStarted, Event{State: StateDone, Message: "done", Owner: "node-x", LeaseEpoch: 1})
	files.lease.Released = true
	files.extras = map[string]string{"result.json": `{"configs":{"r1":"hostname r1\n"},"report":null}`}
	writeJobDir(t, dir, id, files)
	s.Rescan()
	if st := jobStatus(t, s, id); st.State != StateDone || st.Finished == nil {
		t.Fatalf("job finished by node-x is %s here (finished %v), want done", st.State, st.Finished)
	}
	j, _ := s.store.get(id)
	j.mu.Lock()
	got := j.result["r1"]
	j.mu.Unlock()
	if got != "hostname r1\n" {
		t.Fatalf("adopted result r1 = %q", got)
	}
}

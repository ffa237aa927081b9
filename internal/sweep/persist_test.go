package sweep

import (
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"frontier/internal/crawl"
	"frontier/internal/gen"
	"frontier/internal/graph"
	"frontier/internal/jobs"
	"frontier/internal/xrand"
)

// checkPersisted asserts that a finished sweep's manifest carries
// digests only (under 256 bytes per node, where inline results ran to
// kilobytes) and that each done node's result file hashes to its
// advertised digest.
func checkPersisted(t *testing.T, m *Manager, st Status) {
	t.Helper()
	fi, err := os.Stat(filepath.Join(m.dir, st.ID+".json"))
	if err != nil {
		t.Fatalf("stat manifest: %v", err)
	}
	if per := fi.Size() / int64(len(st.Nodes)); per >= 256 {
		t.Errorf("manifest is %d bytes for %d nodes (%d per node), want < 256 per node",
			fi.Size(), len(st.Nodes), per)
	}
	for _, n := range st.Nodes {
		if n.State != NodeDone {
			continue
		}
		data, err := os.ReadFile(m.resultPath(st.ID, n.Digest))
		if err != nil {
			t.Fatalf("node %s result file: %v", n.ID, err)
		}
		if got := digestOf(data); got != n.Digest {
			t.Fatalf("node %s result file hashes to %s, advertised %s", n.ID, got, n.Digest)
		}
	}
}

// artifactBytes reads a finished sweep's artifact files by name.
func artifactBytes(t *testing.T, m *Manager, st Status) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for _, a := range st.Artifacts {
		path, err := m.ArtifactPath(st.ID, a.Name)
		if err != nil {
			t.Fatalf("artifact %s: %v", a.Name, err)
		}
		if out[a.Name], err = os.ReadFile(path); err != nil {
			t.Fatalf("read artifact %s: %v", a.Name, err)
		}
	}
	return out
}

// copyTree copies the regular files and directories under src to dst.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatalf("copy %s: %v", src, err)
	}
}

// resumeFrom builds fresh job and sweep managers over the jobs, sweeps
// and artifacts directories under root, resuming what they hold. Jobs
// sample src; sweeps plan on g.
func resumeFrom(t *testing.T, src crawl.Source, g *graph.Graph, root string) *Manager {
	t.Helper()
	jm, err := jobs.NewManager(src, jobs.WithWorkers(2), jobs.WithCheckpointDir(filepath.Join(root, "jobs")))
	if err != nil {
		t.Fatalf("resumed jobs manager: %v", err)
	}
	t.Cleanup(jm.Stop)
	m, err := NewManager(jm, testSource{g: g},
		WithDir(filepath.Join(root, "sweeps")), WithArtifactDir(filepath.Join(root, "artifacts")))
	if err != nil {
		t.Fatalf("resumed sweep manager: %v", err)
	}
	t.Cleanup(m.Stop)
	return m
}

// TestSweepResumeVerifiesResultFiles freezes a sweep mid-run and
// resumes three copies of its directories: untouched (the control,
// which must finish to the uninterrupted run's artifacts), with one
// done node's result file deleted, and with one byte of that file
// flipped. Each damaged copy must end failed with a resume error
// naming the node and its digest, never finish with other artifacts,
// cancel the jobs its frozen nodes were running, and persist the
// failure.
func TestSweepResumeVerifiesResultFiles(t *testing.T) {
	g := gen.BarabasiAlbert(xrand.New(11), 800, 3)
	spec := Spec{Artifact: "fig1", Seed: 5, Runs: 12, Parallel: 2}

	_, control := newTestManagers(t, g, g, nil, 2)
	csw, err := control.Submit(spec)
	if err != nil {
		t.Fatalf("control submit: %v", err)
	}
	cst := waitTerminal(t, csw, 2*time.Minute)
	if cst.State != StateDone {
		t.Fatalf("control sweep %s: %q", cst.State, cst.Error)
	}
	checkPersisted(t, control, cst)
	want := artifactBytes(t, control, cst)

	// Freeze a slowed run mid-sweep, with nodes done and jobs in
	// flight.
	frozenRoot := t.TempDir()
	slow := &slowSource{g: g, delay: time.Millisecond}
	jm1, err := jobs.NewManager(slow, jobs.WithWorkers(2),
		jobs.WithCheckpointDir(filepath.Join(frozenRoot, "jobs")))
	if err != nil {
		t.Fatalf("jobs manager: %v", err)
	}
	m1, err := NewManager(jm1, testSource{g: g}, WithDir(filepath.Join(frozenRoot, "sweeps")),
		WithArtifactDir(filepath.Join(frozenRoot, "artifacts")))
	if err != nil {
		t.Fatalf("sweep manager: %v", err)
	}
	sw1, err := m1.Submit(spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	deadline := time.Now().Add(time.Minute)
	for st := sw1.Status(); (st.NodeCounts[NodeDone] < 3 || st.NodeCounts[NodeRunning] == 0) &&
		!st.State.Terminal(); st = sw1.Status() {
		if time.Now().After(deadline) {
			t.Fatalf("sweep made no progress before the freeze")
		}
		time.Sleep(10 * time.Millisecond)
	}
	m1.Stop()
	jm1.Stop()
	frozen := sw1.Status()
	if frozen.State.Terminal() {
		t.Skipf("sweep finished before the freeze (done=%d); nothing to resume", frozen.NodeCounts[NodeDone])
	}
	var victim NodeStatus
	for _, n := range frozen.Nodes {
		if n.State == NodeDone {
			victim = n
			break
		}
	}
	if victim.ID == "" {
		t.Fatalf("freeze captured no completed nodes: %v", frozen.NodeCounts)
	}

	for _, tc := range []struct {
		name    string
		damage  func(path string) error
		wantErr string // "" = must finish to the control's artifacts
	}{
		{name: "clean"},
		{name: "missing", damage: os.Remove, wantErr: "resume: node " + victim.ID + " result " + victim.Digest + ": "},
		{name: "flipped", damage: func(path string) error {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			data[len(data)/2] ^= 1
			return os.WriteFile(path, data, 0o644)
		}, wantErr: "resume: node " + victim.ID + " result " + victim.Digest + ": file hashes to "},
	} {
		t.Run(tc.name, func(t *testing.T) {
			root := t.TempDir()
			copyTree(t, frozenRoot, root)
			if tc.damage != nil {
				path := (&Manager{dir: filepath.Join(root, "sweeps")}).resultPath(frozen.ID, victim.Digest)
				if err := tc.damage(path); err != nil {
					t.Fatalf("damage %s: %v", path, err)
				}
			}
			// Damaged copies resume on the slowed source, so their
			// in-flight jobs cannot finish before the resume cancels
			// them.
			var src crawl.Source = g
			if tc.damage != nil {
				src = slow
			}
			m := resumeFrom(t, src, g, root)
			sw, ok := m.Get(frozen.ID)
			if !ok {
				t.Fatalf("resumed manager lost sweep %s", frozen.ID)
			}
			st := waitTerminal(t, sw, 2*time.Minute)
			if tc.wantErr != "" {
				if st.State != StateFailed || !strings.HasPrefix(st.Error, tc.wantErr) {
					t.Fatalf("sweep %s (%q), want failed with %q", st.State, st.Error, tc.wantErr)
				}
				if len(st.Artifacts) != 0 {
					t.Fatalf("damaged resume wrote artifacts %+v", st.Artifacts)
				}
				checkInflightCancelled(t, jm1, m.jobs, frozen)
				data, err := os.ReadFile(filepath.Join(root, "sweeps", frozen.ID+".json"))
				if err != nil {
					t.Fatalf("read manifest: %v", err)
				}
				man, err := decodeManifest(frozen.ID+".json", data)
				if err != nil {
					t.Fatal(err)
				}
				if man.State != StateFailed || man.Error != st.Error {
					t.Fatalf("manifest on disk reads %s (%q), want failed (%q)", man.State, man.Error, st.Error)
				}
				return
			}
			if st.State != StateDone {
				t.Fatalf("resumed sweep %s: %q, counts %v", st.State, st.Error, st.NodeCounts)
			}
			checkPersisted(t, m, st)
			got := artifactBytes(t, m, st)
			if len(got) != len(want) {
				t.Fatalf("artifacts %+v, control has %d", st.Artifacts, len(want))
			}
			for name, data := range got {
				if string(data) != string(want[name]) {
					t.Errorf("artifact %s differs from the uninterrupted run (digest %s vs %s)",
						name, digestOf(data), digestOf(want[name]))
				}
			}
		})
	}
}

// checkInflightCancelled asserts that every job a frozen sweep's nodes
// had in flight (not terminal in the frozen job manager) ends cancelled
// in the resumed one, and that no resumed job is left queued or
// running.
func checkInflightCancelled(t *testing.T, frozenJobs, resumed *jobs.Manager, frozen Status) {
	t.Helper()
	inflight := 0
	for _, n := range frozen.Nodes {
		fj, ok := frozenJobs.Get(n.JobID)
		if n.JobID == "" || !ok || fj.Status().State.Terminal() {
			continue
		}
		inflight++
		j, ok := resumed.Get(n.JobID)
		if !ok {
			t.Fatalf("resumed job manager lost job %s", n.JobID)
		}
		deadline := time.Now().Add(time.Minute)
		for !j.Status().State.Terminal() {
			if time.Now().After(deadline) {
				t.Fatalf("job %s of the failed sweep still %s", n.JobID, j.Status().State)
			}
			time.Sleep(5 * time.Millisecond)
		}
		if got := j.Status().State; got != jobs.StateCancelled {
			t.Errorf("job %s of the failed sweep ended %s, want cancelled", n.JobID, got)
		}
	}
	if inflight == 0 {
		// Every job the freeze caught running finished before its job
		// manager stopped; only the checks below apply.
		t.Logf("the freeze left no jobs in flight: %v", frozen.NodeCounts)
	}
	for _, j := range resumed.Jobs() {
		if st := j.Status().State; !st.Terminal() {
			t.Errorf("job %s still %s after its sweep failed at resume", j.ID(), st)
		}
	}
}

// FuzzSweepManifest feeds arbitrary bytes through manifest decoding and
// restore. Each input must yield an error or a sweep, never a panic,
// and a sweep that would run again must hold only done results that
// hash to their digests.
func FuzzSweepManifest(f *testing.F) {
	g := gen.BarabasiAlbert(xrand.New(3), 200, 3)
	_, m := newTestManagers(f, g, g, nil, 2)
	sw, err := m.Submit(Spec{Artifact: "fig1", Runs: 2})
	if err != nil {
		f.Fatalf("submit: %v", err)
	}
	if st := waitTerminal(f, sw, time.Minute); st.State != StateDone {
		f.Fatalf("seed sweep %s: %q", st.State, st.Error)
	}
	name := sw.ID() + ".json"
	done, err := os.ReadFile(filepath.Join(m.dir, name))
	if err != nil {
		f.Fatalf("read manifest: %v", err)
	}
	f.Add(done)
	var man manifest
	if err := json.Unmarshal(done, &man); err != nil {
		f.Fatalf("decode manifest: %v", err)
	}
	man.State = StateRunning // a sweep that resumes reads its result files
	running, err := json.Marshal(man)
	if err != nil {
		f.Fatalf("encode manifest: %v", err)
	}
	f.Add(running)
	man.Spec.Runs = -1 // plan must never see a spec Submit would not have accepted
	unnormalized, err := json.Marshal(man)
	if err != nil {
		f.Fatalf("encode manifest: %v", err)
	}
	f.Add(unnormalized)

	f.Fuzz(func(t *testing.T, data []byte) {
		man, err := decodeManifest(name, data)
		if err != nil {
			return
		}
		sw := m.restore(man)
		if sw.state.Terminal() {
			return
		}
		for _, n := range sw.nodes {
			if n.state == NodeDone && digestOf(n.result) != n.digest {
				t.Fatalf("resumable sweep holds node %s with an unverified result", n.id)
			}
		}
	})
}

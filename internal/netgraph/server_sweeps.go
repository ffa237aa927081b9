package netgraph

import (
	"encoding/json"
	"errors"
	"net/http"
	"strings"

	"frontier/internal/jobs"
	"frontier/internal/obs"
	"frontier/internal/sweep"
)

// maxSweepBodyBytes bounds the POST /v1/sweeps body; a sweep.Spec is a
// handful of scalars.
const maxSweepBodyBytes = 1 << 16

// SweepList is the GET /v1/sweeps response.
type SweepList struct {
	// Sweeps holds every tracked sweep's status in submission order.
	Sweeps []sweep.Status `json:"sweeps"`
}

// handleSubmitSweep plans and starts a sweep from the posted
// sweep.Spec, replying 202 with the initial status. The request's
// trace id (X-Trace-Id, minted when absent) becomes the sweep-wide
// trace id stamped on every node's job.
func (s *Server) handleSubmitSweep(w http.ResponseWriter, r *http.Request) {
	var spec sweep.Spec
	body := http.MaxBytesReader(w, r.Body, maxSweepBodyBytes)
	if err := json.NewDecoder(body).Decode(&spec); err != nil {
		http.Error(w, "bad sweep spec: "+err.Error(), http.StatusBadRequest)
		return
	}
	sw, err := s.sweeps.SubmitTrace(spec, obs.TraceID(r.Context()))
	if err != nil {
		code := http.StatusBadRequest
		switch {
		case errors.Is(err, sweep.ErrStopped), errors.Is(err, jobs.ErrStopped):
			code = http.StatusServiceUnavailable
		case errors.Is(err, ErrUnknownGraph):
			code = http.StatusNotFound
		}
		http.Error(w, err.Error(), code)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	_ = json.NewEncoder(w).Encode(sw.Status())
}

func (s *Server) handleListSweeps(w http.ResponseWriter, r *http.Request) {
	all := s.sweeps.Sweeps()
	out := SweepList{Sweeps: make([]sweep.Status, 0, len(all))}
	for _, sw := range all {
		out.Sweeps = append(out.Sweeps, sw.Status())
	}
	writeJSON(w, r, out)
}

func (s *Server) handleGetSweep(w http.ResponseWriter, r *http.Request) {
	sw, ok := s.sweeps.Get(r.PathValue("id"))
	if !ok {
		http.Error(w, "no such sweep", http.StatusNotFound)
		return
	}
	writeJSON(w, r, sw.Status())
}

// handleSweepEvents streams a sweep's progress as Server-Sent Events:
// one "status" event (data: the sweep's Status JSON) per observed
// change — node transitions, artifacts written, terminal state —
// starting with the current status and ending after the terminal one.
// Like the job stream, it is level-triggered: rapid intermediate
// transitions coalesce.
func (s *Server) handleSweepEvents(w http.ResponseWriter, r *http.Request) {
	sw, ok := s.sweeps.Get(r.PathValue("id"))
	if !ok {
		http.Error(w, "no such sweep", http.StatusNotFound)
		return
	}
	last := int64(-1)
	serveEvents(w, r, sw.Watch, func(send func(string, any)) bool {
		st, v := sw.StatusVersion()
		if v != last {
			last = v
			send("status", st)
		}
		return st.State.Terminal()
	})
}

// handleSweepTrace serves the sweep's stage-event timeline: submit,
// plan, per-node transitions, artifact writes, and the terminal state,
// all under the one trace id the sweep's jobs carry.
func (s *Server) handleSweepTrace(w http.ResponseWriter, r *http.Request) {
	sw, ok := s.sweeps.Get(r.PathValue("id"))
	if !ok {
		http.Error(w, "no such sweep", http.StatusNotFound)
		return
	}
	writeJSON(w, r, sw.Trace())
}

// SweepArtifactList is the GET /v1/sweeps/{id}/artifacts response.
type SweepArtifactList struct {
	// Artifacts lists the artifact files the sweep has written so far,
	// with sizes and sha256 digests.
	Artifacts []sweep.ArtifactInfo `json:"artifacts"`
}

func (s *Server) handleSweepArtifacts(w http.ResponseWriter, r *http.Request) {
	sw, ok := s.sweeps.Get(r.PathValue("id"))
	if !ok {
		http.Error(w, "no such sweep", http.StatusNotFound)
		return
	}
	st := sw.Status()
	out := SweepArtifactList{Artifacts: st.Artifacts}
	if out.Artifacts == nil {
		out.Artifacts = []sweep.ArtifactInfo{}
	}
	writeJSON(w, r, out)
}

// handleSweepArtifact serves one artifact file's bytes. Only names the
// sweep's manifest lists resolve, so path traversal is structurally
// impossible.
func (s *Server) handleSweepArtifact(w http.ResponseWriter, r *http.Request) {
	path, err := s.sweeps.ArtifactPath(r.PathValue("id"), r.PathValue("name"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	ctype := "application/octet-stream"
	switch {
	case strings.HasSuffix(path, ".json"):
		ctype = "application/json"
	case strings.HasSuffix(path, ".csv"):
		ctype = "text/csv; charset=utf-8"
	}
	w.Header().Set("Content-Type", ctype)
	http.ServeFile(w, r, path)
}

func (s *Server) handleCancelSweep(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.sweeps.Cancel(id); err != nil {
		code := http.StatusConflict
		if errors.Is(err, sweep.ErrUnknownSweep) {
			code = http.StatusNotFound
		}
		http.Error(w, err.Error(), code)
		return
	}
	sw, _ := s.sweeps.Get(id)
	writeJSON(w, r, sw.Status())
}

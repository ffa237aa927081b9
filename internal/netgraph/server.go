// Package netgraph exposes graphs over HTTP and lets the samplers crawl
// them across the network.
//
// Real deployments of the paper's methods crawl an online social
// network's web API: each vertex query returns the user's incoming and
// outgoing edges (the paper's access model, Section 2). This package
// provides both halves of that interaction for experiments and examples:
//
//   - Server: a net/http handler serving vertex neighborhoods and graph
//     metadata as JSON (mounted by cmd/graphd), with gzip response
//     compression, a batch vertex endpoint, request counters, Prometheus
//     /metrics, and optional injected per-request latency to model slow
//     OSN APIs. A server hosts a whole Catalog of named graphs: graphs
//     can be listed, hot-loaded and evicted over HTTP, every data
//     endpoint routes by graph name (with a default-graph fallback for
//     single-graph deployments), and the sampling-job endpoints stream
//     progress over SSE;
//   - Client: an HTTP client with a bounded LRU vertex cache,
//     single-flight fetch deduplication and batched prefetch; it
//     implements crawl.Source, crawl.BatchSource and estimate.EdgeView,
//     so every sampler and estimator in this repository runs unmodified
//     against a remote graph.
//
// See docs/API.md for the complete HTTP API reference.
package netgraph

import (
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"frontier/internal/graph"
	"frontier/internal/graphio"
	"frontier/internal/jobs"
	"frontier/internal/obs"
	"frontier/internal/sweep"
)

// Meta describes one served graph.
type Meta struct {
	// NumVertices is |V|.
	NumVertices int `json:"num_vertices"`
	// NumDirectedEdges is |Ed|.
	NumDirectedEdges int `json:"num_directed_edges"`
	// NumSymEdges is |E|, the symmetric edge count.
	NumSymEdges int `json:"num_sym_edges"`
	// NumGroups is the number of group labels (0 when unlabeled).
	NumGroups int `json:"num_groups"`
	// Name is the graph's catalog name.
	Name string `json:"name,omitempty"`
}

// VertexRecord is the response to a vertex query: everything the
// paper's access model reveals when a vertex is crawled.
type VertexRecord struct {
	// ID is the queried vertex id.
	ID int `json:"id"`
	// SymDegree is the vertex's degree in the symmetric view.
	SymDegree int `json:"sym_degree"`
	// InDegree is the directed in-degree.
	InDegree int `json:"in_degree"`
	// OutDegree is the directed out-degree.
	OutDegree int `json:"out_degree"`
	// SymNeighbors lists the symmetric neighbors, ascending.
	SymNeighbors []int32 `json:"sym_neighbors"`
	// OutNeighbors lists the directed out-neighbors, ascending.
	OutNeighbors []int32 `json:"out_neighbors"`
	// Groups lists the vertex's group labels, when the graph has any.
	Groups []int32 `json:"groups,omitempty"`
}

// BatchRequest is the body of POST /v1/vertices: the ids to fetch in one
// round trip.
type BatchRequest struct {
	// IDs are the vertex ids to fetch.
	IDs []int `json:"ids"`
}

// BatchResponse is the reply to a batch request. Records appear in the
// order of the requested ids, with duplicates collapsed to their first
// occurrence.
type BatchResponse struct {
	// Vertices holds one record per distinct requested id.
	Vertices []VertexRecord `json:"vertices"`
}

// GraphList is the GET /v1/graphs response.
type GraphList struct {
	// Graphs lists the hosted graphs sorted by name.
	Graphs []GraphInfo `json:"graphs"`
	// Default names the graph unqualified requests route to ("" when
	// none is set).
	Default string `json:"default,omitempty"`
}

// ServerStats are the monotonically increasing request counters exposed
// at GET /v1/stats, aggregated over all hosted graphs (per-graph
// breakdowns live at GET /metrics).
type ServerStats struct {
	// Requests counts all requests on any endpoint.
	Requests int64 `json:"requests"`
	// MetaRequests counts GET /v1/meta.
	MetaRequests int64 `json:"meta_requests"`
	// VertexRequests counts GET /v1/vertex/{id}.
	VertexRequests int64 `json:"vertex_requests"`
	// BatchRequests counts POST /v1/vertices.
	BatchRequests int64 `json:"batch_requests"`
	// VerticesServed counts vertex records sent (single + batched).
	VerticesServed int64 `json:"vertices_served"`
	// FaultsInjected counts hard faults injected by WithFaults (status
	// responses + dropped connections); zero and omitted without fault
	// injection.
	FaultsInjected int64 `json:"faults_injected,omitempty"`
	// FaultsByStatus breaks FaultsInjected down by injected status code.
	FaultsByStatus map[string]int64 `json:"faults_by_status,omitempty"`
	// FaultsDropped counts injected dropped connections.
	FaultsDropped int64 `json:"faults_dropped,omitempty"`
	// FaultsSlowed counts responses served after an injected slow delay.
	FaultsSlowed int64 `json:"faults_slowed,omitempty"`
}

// ServerOption configures a Server.
type ServerOption func(*Server)

// WithLatency injects a fixed sleep before every request is handled,
// modeling the response time of a real OSN API (the regime the paper's
// cost model abstracts: each query is a slow network round trip).
// Experiments use it to measure how well batching hides latency. The
// observability endpoints (/healthz, /metrics) and the SSE job-event
// stream are exempt: probes and dashboards must stay cheap even when
// the served API is modeled as slow.
func WithLatency(d time.Duration) ServerOption {
	return func(s *Server) { s.latency = d }
}

// WithJobs mounts the sampling-job endpoints (POST /v1/jobs,
// GET /v1/jobs/{id}, GET /v1/jobs/{id}/events, POST /v1/jobs/{id}/cancel)
// backed by m, which the caller owns: the server does not stop the
// manager on shutdown. Build the manager with jobs.WithResolver over the
// server's Catalog so job specs can name any hosted graph.
func WithJobs(m *jobs.Manager) ServerOption {
	return func(s *Server) { s.jobs = m }
}

// WithSweeps mounts the paper-figure sweep endpoints (POST /v1/sweeps,
// GET /v1/sweeps/{id}, …/events, …/trace, …/artifacts) backed by m,
// which the caller owns: the server does not stop the manager on
// shutdown. Build the manager over the same jobs.Manager passed to
// WithJobs and the server's Catalog as its graph source.
func WithSweeps(m *sweep.Manager) ServerOption {
	return func(s *Server) { s.sweeps = m }
}

// MaxBatchIDs bounds the number of ids one batch request may ask for,
// keeping a single request from holding the handler for an unbounded
// amount of work.
const MaxBatchIDs = 4096

// maxBatchBodyBytes bounds the batch request body so the id-count check
// cannot be bypassed by streaming an enormous JSON array: MaxBatchIDs
// ids at ~20 digits each fit comfortably in 1 MiB.
const maxBatchBodyBytes = 1 << 20

// MaxGraphUploadBytes bounds the POST /v1/graphs body. 256 MiB of edge
// list is far beyond anything the in-memory catalog should be asked to
// hold per request, while still fitting every experiment dataset.
const MaxGraphUploadBytes = 256 << 20

// Server serves a catalog of graphs (and optional group labels) over
// HTTP. All JSON responses are gzip-compressed when the client accepts
// it. Safe for concurrent use.
type Server struct {
	cat     *Catalog
	mux     *http.ServeMux
	routes  []string
	latency time.Duration
	faults  *faultInjector // nil unless WithFaults configured injection
	jobs    *jobs.Manager
	sweeps  *sweep.Manager
	started time.Time
	log     *slog.Logger      // never nil; NopLogger unless WithLogging
	reqHist *obs.HistogramVec // per-route request-duration histogram

	requests       atomic.Int64
	metaRequests   atomic.Int64
	vertexRequests atomic.Int64
	batchRequests  atomic.Int64
	verticesServed atomic.Int64
}

// NewServer creates a single-graph server: a catalog hosting g (groups
// may be nil) under name, which becomes the default graph. More graphs
// can be added later through the catalog or POST /v1/graphs. An empty
// name is hosted as "default".
func NewServer(name string, g *graph.Graph, groups *graph.GroupLabels, opts ...ServerOption) *Server {
	if name == "" {
		name = "default"
	}
	cat := NewCatalog()
	if err := cat.Add(name, g, groups); err != nil {
		// Reachable only for a nil graph: fail loudly rather than serve
		// an empty catalog under a constructor that promises one graph.
		panic(err)
	}
	return NewCatalogServer(cat, opts...)
}

// NewCatalogServer creates a server over an existing catalog (which may
// be empty, to be filled via POST /v1/graphs). The caller may keep
// adding and removing graphs concurrently; cmd/graphd uses this with a
// jobs.Manager resolving through the same catalog.
func NewCatalogServer(cat *Catalog, opts ...ServerOption) *Server {
	s := &Server{
		cat:     cat,
		mux:     http.NewServeMux(),
		started: time.Now(),
		log:     obs.NopLogger(),
		reqHist: obs.NewHistogramVec("route", nil),
	}
	for _, opt := range opts {
		opt(s)
	}
	s.handle("GET /v1/meta", s.handleMeta)
	s.handle("GET /v1/vertex/{id}", s.handleVertex)
	s.handle("POST /v1/vertices", s.handleBatch)
	s.handle("GET /v1/graphs", s.handleListGraphs)
	s.handle("POST /v1/graphs", s.handleLoadGraph)
	s.handle("DELETE /v1/graphs/{name}", s.handleDeleteGraph)
	s.handle("GET /v1/stats", s.handleStats)
	s.handle("GET /metrics", s.handleMetrics)
	s.handle("GET /healthz", s.handleHealth)
	if s.jobs != nil {
		s.handle("POST /v1/jobs", s.handleSubmitJob)
		s.handle("GET /v1/jobs", s.handleListJobs)
		s.handle("GET /v1/jobs/{id}", s.handleGetJob)
		s.handle("GET /v1/jobs/{id}/estimates", s.handleJobEstimates)
		s.handle("GET /v1/jobs/{id}/events", s.handleJobEvents)
		s.handle("GET /v1/jobs/{id}/trace", s.handleJobTrace)
		s.handle("POST /v1/jobs/{id}/cancel", s.handleCancelJob)
	}
	if s.sweeps != nil {
		s.handle("POST /v1/sweeps", s.handleSubmitSweep)
		s.handle("GET /v1/sweeps", s.handleListSweeps)
		s.handle("GET /v1/sweeps/{id}", s.handleGetSweep)
		s.handle("GET /v1/sweeps/{id}/events", s.handleSweepEvents)
		s.handle("GET /v1/sweeps/{id}/trace", s.handleSweepTrace)
		s.handle("GET /v1/sweeps/{id}/artifacts", s.handleSweepArtifacts)
		s.handle("GET /v1/sweeps/{id}/artifacts/{name}", s.handleSweepArtifact)
		s.handle("POST /v1/sweeps/{id}/cancel", s.handleCancelSweep)
	}
	return s
}

// handle registers a handler — wrapped with the observability stack
// (trace IDs, latency histogram, request log, panic recovery) — and
// records its pattern in the route table.
func (s *Server) handle(pattern string, h http.HandlerFunc) {
	s.routes = append(s.routes, pattern)
	s.mux.HandleFunc(pattern, s.instrument(pattern, h))
}

// Routes returns the method-qualified route patterns the server
// registered (e.g. "GET /v1/meta"), sorted. The docs test diffs this
// table against docs/API.md so the reference cannot silently drift from
// the code.
func (s *Server) Routes() []string {
	out := make([]string, len(s.routes))
	copy(out, s.routes)
	sort.Strings(out)
	return out
}

// Catalog returns the server's graph catalog.
func (s *Server) Catalog() *Catalog { return s.cat }

// Stats returns a snapshot of the aggregate request counters.
func (s *Server) Stats() ServerStats {
	st := ServerStats{
		Requests:       s.requests.Load(),
		MetaRequests:   s.metaRequests.Load(),
		VertexRequests: s.vertexRequests.Load(),
		BatchRequests:  s.batchRequests.Load(),
		VerticesServed: s.verticesServed.Load(),
	}
	if s.faults != nil {
		st.FaultsByStatus, st.FaultsDropped, st.FaultsSlowed, st.FaultsInjected = s.faults.counts()
	}
	return st
}

// latencyExempt reports whether a path skips the injected latency:
// liveness probes, metrics scrapes and the SSE event stream must stay
// cheap even when the served API is modeled as slow.
func latencyExempt(r *http.Request) bool {
	return r.URL.Path == "/healthz" || r.URL.Path == "/metrics" ||
		strings.HasSuffix(r.URL.Path, "/events")
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	if s.latency > 0 && !latencyExempt(r) {
		time.Sleep(s.latency)
	}
	if s.faults != nil && faultEligible(r) && s.injectFault(w, r) {
		return
	}
	s.mux.ServeHTTP(w, r)
}

// graphFor resolves the request's ?graph= parameter (empty = default
// graph) against the catalog, materializing segment-backed graphs and
// pinning the entry for the handler's lifetime — a concurrent DELETE
// gets 409 instead of unmapping arrays the handler is reading. The
// returned release must be called (deferred) when non-nil.
func (s *Server) graphFor(r *http.Request) (*hostedGraph, func(), error) {
	hg, resolved, err := s.cat.acquire(r.URL.Query().Get("graph"))
	if err != nil {
		return nil, nil, err
	}
	return hg, func() { s.cat.release(resolved) }, nil
}

// catalogError writes the HTTP mapping of a catalog lookup failure.
func catalogError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrUnknownGraph):
		code = http.StatusNotFound
	case errors.Is(err, ErrGraphBusy):
		code = http.StatusConflict
	case errors.Is(err, ErrDuplicateGraph):
		code = http.StatusConflict
	}
	http.Error(w, err.Error(), code)
}

func (s *Server) handleMeta(w http.ResponseWriter, r *http.Request) {
	s.metaRequests.Add(1)
	// Served from catalog metadata, not graph data: meta on a cold
	// segment-backed graph answers from its header without mapping it.
	info, err := s.cat.Info(r.URL.Query().Get("graph"))
	if err != nil {
		catalogError(w, err)
		return
	}
	writeJSON(w, r, Meta{
		NumVertices:      info.NumVertices,
		NumDirectedEdges: info.NumDirectedEdges,
		NumSymEdges:      info.NumSymEdges,
		NumGroups:        info.NumGroups,
		Name:             info.Name,
	})
}

// record builds the VertexRecord for a valid id of hg.
func record(hg *hostedGraph, id int) VertexRecord {
	rec := VertexRecord{
		ID:           id,
		SymDegree:    hg.g.SymDegree(id),
		InDegree:     hg.g.InDegree(id),
		OutDegree:    hg.g.OutDegree(id),
		SymNeighbors: hg.g.SymNeighbors(id),
		OutNeighbors: hg.g.OutNeighbors(id),
	}
	if hg.groups != nil {
		rec.Groups = hg.groups.Groups(id)
	}
	return rec
}

func (s *Server) handleVertex(w http.ResponseWriter, r *http.Request) {
	s.vertexRequests.Add(1)
	hg, release, err := s.graphFor(r)
	if err != nil {
		catalogError(w, err)
		return
	}
	defer release()
	hg.vertexRequests.Add(1)
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil || id < 0 || id >= hg.g.NumVertices() {
		http.Error(w, "no such vertex", http.StatusNotFound)
		return
	}
	s.verticesServed.Add(1)
	hg.verticesServed.Add(1)
	writeJSON(w, r, record(hg, id))
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.batchRequests.Add(1)
	hg, release, err := s.graphFor(r)
	if err != nil {
		catalogError(w, err)
		return
	}
	defer release()
	hg.batchRequests.Add(1)
	var req BatchRequest
	body := http.MaxBytesReader(w, r.Body, maxBatchBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, fmt.Sprintf("batch body exceeds %d bytes", tooBig.Limit), http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, "bad batch request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(req.IDs) > MaxBatchIDs {
		http.Error(w, fmt.Sprintf("batch of %d exceeds limit %d", len(req.IDs), MaxBatchIDs), http.StatusRequestEntityTooLarge)
		return
	}
	resp := BatchResponse{Vertices: make([]VertexRecord, 0, len(req.IDs))}
	seen := make(map[int]bool, len(req.IDs))
	for _, id := range req.IDs {
		if id < 0 || id >= hg.g.NumVertices() {
			http.Error(w, fmt.Sprintf("no such vertex %d", id), http.StatusNotFound)
			return
		}
		if seen[id] {
			continue
		}
		seen[id] = true
		resp.Vertices = append(resp.Vertices, record(hg, id))
	}
	s.verticesServed.Add(int64(len(resp.Vertices)))
	hg.verticesServed.Add(int64(len(resp.Vertices)))
	writeJSON(w, r, resp)
}

func (s *Server) handleListGraphs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, r, GraphList{Graphs: s.cat.List(), Default: s.cat.DefaultName()})
}

// handleLoadGraph hot-loads a graph into the catalog:
//
//	POST /v1/graphs?name={name}&format={text|binary|json|fcsr}
//
// with the graph file as the request body, parsed by internal/graphio
// (the same readers the CLI tools use). An fcsr body is the binary
// segment format; its embedded group labels, when present, are hosted
// with the graph. Responds 201 with the new graph's GraphInfo.
func (s *Server) handleLoadGraph(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	if name == "" {
		http.Error(w, "missing ?name=", http.StatusBadRequest)
		return
	}
	format := r.URL.Query().Get("format")
	if format == "" {
		format = graphio.FormatText
	}
	body := http.MaxBytesReader(w, r.Body, MaxGraphUploadBytes)
	var g *graph.Graph
	var groups *graph.GroupLabels
	var err error
	if format == graphio.FormatFCSR {
		// Read directly so the segment's embedded labels survive; the
		// generic Read dispatcher returns only the graph.
		g, groups, err = graphio.ReadFCSR(body)
	} else {
		g, err = graphio.Read(body, format)
	}
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, fmt.Sprintf("graph body exceeds %d bytes", tooBig.Limit), http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, "bad graph upload: "+err.Error(), http.StatusBadRequest)
		return
	}
	if err := s.cat.Add(name, g, groups); err != nil {
		catalogError(w, err)
		return
	}
	// Build the response from the graph just added, not a catalog scan:
	// a concurrent DELETE must not leave this 201 without a body.
	info := GraphInfo{
		Name:             name,
		NumVertices:      g.NumVertices(),
		NumDirectedEdges: g.NumDirectedEdges(),
		NumSymEdges:      g.NumSymEdges(),
		Default:          s.cat.DefaultName() == name,
		Backing:          "memory",
		Loaded:           true,
	}
	if groups != nil {
		info.NumGroups = groups.NumGroups()
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	_ = json.NewEncoder(w).Encode(info)
}

// handleDeleteGraph evicts a graph. 409 Conflict while running jobs pin
// it; 404 for unknown names; 204 on success.
func (s *Server) handleDeleteGraph(w http.ResponseWriter, r *http.Request) {
	if err := s.cat.Remove(r.PathValue("name")); err != nil {
		catalogError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, r, s.Stats())
}

// Health is the GET /healthz response: a cheap liveness summary.
type Health struct {
	// Status is "ok" whenever the handler answers.
	Status string `json:"status"`
	// Name is the default graph's name ("" when the catalog has none).
	Name string `json:"name,omitempty"`
	// NumVertices is the default graph's vertex count (0 when the
	// catalog has no default graph).
	NumVertices int `json:"num_vertices"`
	// Graphs is the number of hosted graphs.
	Graphs int `json:"graphs"`
	// UptimeSeconds is the time since the server was created.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Workers and ActiveJobs are zero when the job service is disabled.
	Workers int `json:"workers"`
	// ActiveJobs counts jobs not yet in a terminal state.
	ActiveJobs int `json:"active_jobs"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	h := Health{
		Status:        "ok",
		Graphs:        s.cat.Len(),
		UptimeSeconds: time.Since(s.started).Seconds(),
	}
	// Info, not Graph: a liveness probe must not map a cold segment in.
	if info, err := s.cat.Info(""); err == nil {
		h.Name = info.Name
		h.NumVertices = info.NumVertices
	}
	if s.jobs != nil {
		h.Workers = s.jobs.Workers()
		h.ActiveJobs = s.jobs.ActiveJobs()
	}
	writeJSON(w, r, h)
}

// maxJobBodyBytes bounds the POST /v1/jobs body; a Spec is a handful of
// scalars.
const maxJobBodyBytes = 1 << 16

func (s *Server) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	var spec jobs.Spec
	body := http.MaxBytesReader(w, r.Body, maxJobBodyBytes)
	if err := json.NewDecoder(body).Decode(&spec); err != nil {
		http.Error(w, "bad job spec: "+err.Error(), http.StatusBadRequest)
		return
	}
	j, err := s.jobs.SubmitTrace(spec, obs.TraceID(r.Context()))
	if err != nil {
		code := http.StatusBadRequest
		switch {
		case errors.Is(err, jobs.ErrQueueFull):
			code = http.StatusServiceUnavailable
		case errors.Is(err, jobs.ErrStopped):
			code = http.StatusServiceUnavailable
		case errors.Is(err, ErrUnknownGraph):
			code = http.StatusNotFound
		}
		http.Error(w, err.Error(), code)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	_ = json.NewEncoder(w).Encode(j.Status())
}

// JobList is the GET /v1/jobs response.
type JobList struct {
	// Jobs holds every tracked job's status in submission order.
	Jobs []jobs.Status `json:"jobs"`
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	all := s.jobs.Jobs()
	out := JobList{Jobs: make([]jobs.Status, 0, len(all))}
	for _, j := range all {
		out.Jobs = append(out.Jobs, j.Status())
	}
	writeJSON(w, r, out)
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		http.Error(w, "no such job", http.StatusNotFound)
		return
	}
	writeJSON(w, r, j.Status())
}

// handleJobEstimates serves the job's latest live estimation report —
// current estimate, confidence interval, mixing diagnostics, stop-rule
// verdict, and the vector result for distribution estimators. 404 until
// the job has published its first report (queued jobs, and running ones
// still inside their first evaluation window).
func (s *Server) handleJobEstimates(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		http.Error(w, "no such job", http.StatusNotFound)
		return
	}
	rep, _, ok := j.EstimateReport()
	if !ok {
		http.Error(w, "no estimates yet", http.StatusNotFound)
		return
	}
	writeJSON(w, r, rep)
}

// handleJobEvents streams a job's progress as Server-Sent Events: one
// "status" event (data: the job's Status JSON) per observed change —
// state transitions and step-boundary checkpoints — interleaved with
// one "estimate" event (data: the live.Report JSON) per estimate-report
// refresh the stream observes, starting with the current status and
// ending after the terminal one. Clients consume it instead of polling
// GET /v1/jobs/{id}; the netgraph client's WaitJob prefers this path
// and falls back to polling when it is unavailable, and FollowEstimates
// consumes the estimate frames.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		http.Error(w, "no such job", http.StatusNotFound)
		return
	}
	last, lastEst := int64(-1), int64(0)
	serveEvents(w, r, j.Watch, func(send func(string, any)) bool {
		st, v := j.StatusVersion()
		// Estimate frames ride the same wake channel: one frame per
		// report refresh the stream observes (intermediate refreshes
		// coalesce, like status updates — the stream is level-triggered).
		// They are written before the status frame because clients stop
		// reading at the terminal status event: the final report must
		// already be on the wire by then.
		if rep, seq, ok := j.EstimateReport(); ok && seq != lastEst {
			lastEst = seq
			send("estimate", rep)
		}
		if v != last {
			last = v
			send("status", st)
		}
		return st.State.Terminal()
	})
}

func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.jobs.Cancel(id); err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	j, _ := s.jobs.Get(id)
	writeJSON(w, r, j.Status())
}

// handleMetrics serves the Prometheus text exposition format: aggregate
// request counters, per-graph traffic and size gauges, and — when the
// job service is mounted — worker-pool occupancy, queue depth, per-graph
// per-state job counts and the age of the newest checkpoint.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var b strings.Builder

	counter := func(name, help string, v int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("graphd_requests_total", "Requests on any endpoint.", s.requests.Load())
	counter("graphd_meta_requests_total", "GET /v1/meta requests.", s.metaRequests.Load())
	counter("graphd_vertex_requests_total", "GET /v1/vertex/{id} requests.", s.vertexRequests.Load())
	counter("graphd_batch_requests_total", "POST /v1/vertices requests.", s.batchRequests.Load())
	counter("graphd_vertices_served_total", "Vertex records sent (single + batched).", s.verticesServed.Load())
	if s.faults != nil {
		s.faults.writeFaultMetrics(&b)
	}

	s.reqHist.WritePrometheus(&b, "graphd_request_duration_seconds",
		"Request latency by route pattern.")
	if s.jobs != nil {
		s.jobs.JobDurations().WritePrometheus(&b, "graphd_job_duration_seconds",
			"Wall-clock job duration by sampling method.")
	}

	fmt.Fprintf(&b, "# HELP graphd_uptime_seconds Time since the server started.\n# TYPE graphd_uptime_seconds gauge\ngraphd_uptime_seconds %g\n",
		time.Since(s.started).Seconds())
	fmt.Fprintf(&b, "# HELP graphd_graphs Hosted graphs in the catalog.\n# TYPE graphd_graphs gauge\ngraphd_graphs %d\n", s.cat.Len())

	infos := s.cat.List()
	perGraph := func(name, help, typ string, value func(GraphInfo) string) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		for _, info := range infos {
			fmt.Fprintf(&b, "%s{graph=\"%s\"} %s\n", name, obs.EscapeLabel(info.Name), value(info))
		}
	}
	if len(infos) > 0 {
		perGraph("graphd_graph_vertices", "Vertices per hosted graph.", "gauge",
			func(i GraphInfo) string { return strconv.Itoa(i.NumVertices) })
		perGraph("graphd_graph_sym_edges", "Symmetric edges per hosted graph.", "gauge",
			func(i GraphInfo) string { return strconv.Itoa(i.NumSymEdges) })
		perGraph("graphd_graph_pins", "Running jobs pinning each graph.", "gauge",
			func(i GraphInfo) string { return strconv.Itoa(i.Pins) })
		s.cat.mu.Lock()
		type counts struct{ vertex, batch, served int64 }
		byName := make(map[string]counts, len(s.cat.graphs))
		for name, hg := range s.cat.graphs {
			byName[name] = counts{hg.vertexRequests.Load(), hg.batchRequests.Load(), hg.verticesServed.Load()}
		}
		s.cat.mu.Unlock()
		perGraph("graphd_graph_vertex_requests_total", "Vertex requests per graph.", "counter",
			func(i GraphInfo) string { return strconv.FormatInt(byName[i.Name].vertex, 10) })
		perGraph("graphd_graph_batch_requests_total", "Batch requests per graph.", "counter",
			func(i GraphInfo) string { return strconv.FormatInt(byName[i.Name].batch, 10) })
		perGraph("graphd_graph_vertices_served_total", "Vertex records served per graph.", "counter",
			func(i GraphInfo) string { return strconv.FormatInt(byName[i.Name].served, 10) })
	}

	if s.jobs != nil {
		fmt.Fprintf(&b, "# HELP graphd_job_workers Job worker pool size.\n# TYPE graphd_job_workers gauge\ngraphd_job_workers %d\n", s.jobs.Workers())
		fmt.Fprintf(&b, "# HELP graphd_job_workers_busy Workers currently running a job.\n# TYPE graphd_job_workers_busy gauge\ngraphd_job_workers_busy %d\n", s.jobs.BusyWorkers())
		fmt.Fprintf(&b, "# HELP graphd_job_queue_depth Jobs waiting for a worker.\n# TYPE graphd_job_queue_depth gauge\ngraphd_job_queue_depth %d\n", s.jobs.QueueDepth())
		if last := s.jobs.LastCheckpoint(); !last.IsZero() {
			fmt.Fprintf(&b, "# HELP graphd_job_checkpoint_age_seconds Age of the newest job checkpoint.\n# TYPE graphd_job_checkpoint_age_seconds gauge\ngraphd_job_checkpoint_age_seconds %g\n",
				time.Since(last).Seconds())
		}
		type key struct {
			graph string
			state jobs.State
		}
		jc := make(map[key]int)
		all := s.jobs.Jobs()
		statuses := make([]jobs.Status, 0, len(all))
		for _, j := range all {
			st := j.Status()
			statuses = append(statuses, st)
			g := st.Spec.Graph
			if g == "" {
				g = s.cat.DefaultName()
			}
			jc[key{g, st.State}]++
		}
		fmt.Fprintf(&b, "# HELP graphd_jobs Jobs per graph and state.\n# TYPE graphd_jobs gauge\n")
		keys := make([]key, 0, len(jc))
		for k := range jc {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(a, b int) bool {
			if keys[a].graph != keys[b].graph {
				return keys[a].graph < keys[b].graph
			}
			return keys[a].state < keys[b].state
		})
		for _, k := range keys {
			fmt.Fprintf(&b, "graphd_jobs{graph=\"%s\",state=\"%s\"} %d\n",
				obs.EscapeLabel(k.graph), obs.EscapeLabel(string(k.state)), jc[k])
		}
		// Per-job live estimate-update counters (Jobs() returns
		// submission order, which is already stable for scrapes).
		emitted := false
		for _, st := range statuses {
			if st.EstimateUpdates == 0 {
				continue
			}
			if !emitted {
				fmt.Fprintf(&b, "# HELP graphd_job_estimate_updates_total Live estimate report refreshes per job.\n# TYPE graphd_job_estimate_updates_total counter\n")
				emitted = true
			}
			fmt.Fprintf(&b, "graphd_job_estimate_updates_total{job=\"%s\"} %d\n", obs.EscapeLabel(st.ID), st.EstimateUpdates)
		}
		// Per-job resilience counters: retry attempts the job's source
		// issued (quota spent surviving faults) and the circuit
		// breaker's state at the last step boundary.
		emitted = false
		for _, st := range statuses {
			if st.Retries == 0 {
				continue
			}
			if !emitted {
				fmt.Fprintf(&b, "# HELP graphd_job_retries_total Source retry attempts per job.\n# TYPE graphd_job_retries_total counter\n")
				emitted = true
			}
			fmt.Fprintf(&b, "graphd_job_retries_total{job=\"%s\"} %d\n", obs.EscapeLabel(st.ID), st.Retries)
		}
		emitted = false
		for _, st := range statuses {
			if st.Breaker == "" {
				continue
			}
			if !emitted {
				fmt.Fprintf(&b, "# HELP graphd_job_breaker Circuit-breaker state per job (1 = current state).\n# TYPE graphd_job_breaker gauge\n")
				emitted = true
			}
			fmt.Fprintf(&b, "graphd_job_breaker{job=\"%s\",state=\"%s\"} 1\n",
				obs.EscapeLabel(st.ID), obs.EscapeLabel(st.Breaker))
		}
	}

	if s.sweeps != nil {
		writeStateGauge := func(name, help string, counts map[string]int) {
			fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
			states := make([]string, 0, len(counts))
			for st := range counts {
				states = append(states, st)
			}
			sort.Strings(states)
			for _, st := range states {
				fmt.Fprintf(&b, "%s{state=\"%s\"} %d\n", name, obs.EscapeLabel(st), counts[st])
			}
		}
		sc := make(map[string]int)
		for st, c := range s.sweeps.StateCounts() {
			sc[string(st)] = c
		}
		writeStateGauge("graphd_sweeps", "Sweeps per lifecycle state.", sc)
		nc := make(map[string]int)
		for st, c := range s.sweeps.NodeCounts() {
			nc[string(st)] = c
		}
		writeStateGauge("graphd_sweep_nodes", "Sweep DAG nodes per state, across all sweeps.", nc)
	}

	_, _ = w.Write([]byte(b.String()))
}

// acceptsGzip reports whether the Accept-Encoding header allows a gzip
// response, honoring q-values ("gzip;q=0" explicitly refuses it).
func acceptsGzip(header string) bool {
	for _, part := range strings.Split(header, ",") {
		fields := strings.Split(strings.TrimSpace(part), ";")
		if strings.TrimSpace(fields[0]) != "gzip" {
			continue
		}
		for _, p := range fields[1:] {
			if q, ok := strings.CutPrefix(strings.TrimSpace(p), "q="); ok {
				if f, err := strconv.ParseFloat(q, 64); err == nil && f == 0 {
					return false
				}
			}
		}
		return true
	}
	return false
}

// writeJSON encodes v, gzip-compressing when the request advertises
// support (Go's default HTTP transport does, and transparently inflates
// the response, so clients need no special handling). Adjacency-list
// JSON compresses several-fold, which matters at OSN degrees.
func writeJSON(w http.ResponseWriter, r *http.Request, v any) {
	w.Header().Set("Content-Type", "application/json")
	if r != nil && acceptsGzip(r.Header.Get("Accept-Encoding")) {
		w.Header().Set("Content-Encoding", "gzip")
		gz := gzip.NewWriter(w)
		if err := json.NewEncoder(gz).Encode(v); err != nil {
			// Connection-level failure; nothing actionable server-side.
			_ = err
		}
		_ = gz.Close()
		return
	}
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Connection-level failure; response already partially written.
		_ = err
	}
}

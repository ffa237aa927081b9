package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"

	"frontier/internal/gen"
	"frontier/internal/graph"
	"frontier/internal/graphio"
	"frontier/internal/jobs"
	"frontier/internal/netgraph"
	"frontier/internal/obs"
	"frontier/internal/sweep"
	"frontier/internal/xrand"
)

// graphName is the catalog name the stand-in graph is hosted under.
const graphName = "flickr"

// datasetSeed fixes the generated graph (graphd's default -seed): the
// workload seed varies the tasks, not the graph they run on.
const datasetSeed = 1

// setupTimes is one set-up repetition: the instants it started and
// finished building, writing and opening the segment.
type setupTimes [4]time.Time

// durations are the repetition's steps on the steal-corrected clock.
func (s setupTimes) durations(c *stealClock) (build, write, open time.Duration) {
	return c.adjust(s[0], s[1]), c.adjust(s[1], s[2]), c.adjust(s[2], s[3])
}

// env is graphd composed in-process as cmd/graphd composes it, bound
// to loopback, plus the handles the benchmark needs to check results.
type env struct {
	dir      string
	cat      *netgraph.Catalog
	g        *graph.Graph
	truth    float64 // exact average symmetric degree
	ckptDir  string
	sweepDir string
	mgr      *jobs.Manager
	sweeps   *sweep.Manager
	srv      *http.Server
	served   chan error
	baseURL  string
	logger   *slog.Logger
}

// buildSegment generates the Flickr stand-in, writes it as an .fcsr
// segment at path, and hosts it lazily in a fresh catalog (which maps
// it), timing the three steps.
func buildSegment(path string, scale float64) (*netgraph.Catalog, setupTimes, error) {
	var st setupTimes
	st[0] = time.Now()
	ds := gen.FlickrLike(xrand.New(datasetSeed), gen.Scale(scale))
	st[1] = time.Now()
	if err := writeSegment(path, ds); err != nil {
		return nil, st, err
	}
	st[2] = time.Now()
	cat := netgraph.NewCatalog()
	if err := cat.AddPath(graphName, path); err != nil {
		return nil, st, fmt.Errorf("hosting segment: %w", err)
	}
	if _, _, err := cat.Graph(graphName); err != nil {
		return nil, st, fmt.Errorf("mapping segment: %w", err)
	}
	st[3] = time.Now()
	return cat, st, nil
}

func writeSegment(path string, ds gen.Dataset) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing segment: %w", err)
	}
	w := bufio.NewWriter(f)
	if err := graphio.WriteFCSR(w, ds.Graph, ds.Groups); err != nil {
		f.Close()
		return fmt.Errorf("writing segment: %w", err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing segment: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing segment: %w", err)
	}
	return nil
}

// setup builds the graph reps times (the median repetition is the
// set-up time) and composes graphd over the last one: a catalog, a
// job manager with 2 workers and a checkpoint dir, a sweep manager,
// and the catalog server on a loopback port with the given injected
// latency.
func setup(dir string, scale float64, reps int, latency time.Duration) (*env, []setupTimes, error) {
	e := &env{dir: dir, ckptDir: filepath.Join(dir, "jobs"), sweepDir: filepath.Join(dir, "jobs", "sweeps")}
	var times []setupTimes
	for i := 0; i < reps; i++ {
		path := filepath.Join(dir, fmt.Sprintf("flickr-%d.fcsr", i))
		cat, st, err := buildSegment(path, scale)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, st)
		if e.cat != nil {
			if err := e.cat.Remove(graphName); err != nil {
				return nil, nil, fmt.Errorf("evicting set-up repetition: %w", err)
			}
		}
		e.cat = cat
	}
	// graphd hosts a segment it did not generate: hand the set-up's
	// garbage back to the OS before serving starts.
	debug.FreeOSMemory()
	g, _, err := e.cat.Graph(graphName)
	if err != nil {
		return nil, nil, err
	}
	e.g = g
	e.truth = float64(g.NumSymEdges()) / float64(g.NumVertices())

	// graphd logs every request and job transition at info; the
	// benchmark keeps that cost and discards the text.
	e.logger, err = obs.NewLogger(io.Discard, slog.LevelInfo, "text")
	if err != nil {
		return nil, nil, err
	}
	e.mgr, err = jobs.NewManager(nil,
		jobs.WithWorkers(2), jobs.WithResolver(e.cat),
		jobs.WithLogger(e.logger), jobs.WithCheckpointDir(e.ckptDir))
	if err != nil {
		return nil, nil, err
	}
	e.sweeps, err = sweep.NewManager(e.mgr, e.cat,
		sweep.WithLogger(e.logger), sweep.WithDir(e.sweepDir),
		sweep.WithArtifactDir(filepath.Join(dir, "artifacts")))
	if err != nil {
		e.mgr.Stop()
		return nil, nil, err
	}
	opts := []netgraph.ServerOption{
		netgraph.WithLogging(e.logger), netgraph.WithJobs(e.mgr), netgraph.WithSweeps(e.sweeps),
	}
	if latency > 0 {
		opts = append(opts, netgraph.WithLatency(latency))
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.sweeps.Stop()
		e.mgr.Stop()
		return nil, nil, err
	}
	e.baseURL = "http://" + ln.Addr().String()
	e.srv = &http.Server{Handler: netgraph.NewCatalogServer(e.cat, opts...), ReadHeaderTimeout: 10 * time.Second}
	e.served = make(chan error, 1)
	go func() { e.served <- e.srv.Serve(ln) }()
	return e, times, nil
}

// close shuts graphd down in cmd/graphd's order and waits for the
// listener goroutine to exit.
func (e *env) close() error {
	e.sweeps.Stop()
	e.mgr.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := e.srv.Shutdown(ctx)
	if serr := <-e.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if rerr := e.cat.Remove(graphName); err == nil {
		err = rerr
	}
	return err
}

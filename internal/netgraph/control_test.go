package netgraph

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"frontier/internal/jobs"
	"frontier/internal/live"
	"frontier/internal/sweep"
)

// rawServer dials a client against a server that answers /v1/meta and
// hands every other request to h.
func rawServer(t *testing.T, h http.HandlerFunc) *Client {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/meta" {
			writeJSON(w, nil, Meta{Name: "raw", NumVertices: 1})
			return
		}
		h(w, r)
	}))
	t.Cleanup(ts.Close)
	c, err := Dial(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestFollowRawStreams serves hand-written SSE bodies through both the
// job and the sweep stream readers. The job stream decodes estimate
// frames, so a malformed one fails it; to the sweep stream an estimate
// frame is an unknown kind and is skipped.
func TestFollowRawStreams(t *testing.T) {
	const (
		sse     = "text/event-stream"
		running = `{"id":"x","state":"running"}`
		done    = `{"id":"x","state":"done"}`
	)
	for _, tc := range []struct {
		name, ctype, body string
		statuses          int    // status callbacks before the return
		jobErr, sweepErr  string // "" = must return the done status
	}{
		{name: "untagged frames are status", ctype: sse,
			body: "data: " + running + "\n\ndata: " + done + "\n\n", statuses: 2},
		{name: "unknown kinds are skipped", ctype: sse + "; charset=utf-8",
			body: "event: delta\ndata: {not json\n\nevent: status\ndata: " + done + "\n\n", statuses: 1},
		{name: "comments ids and empty frames are skipped", ctype: sse,
			body: ": hello\n\nid: 4\nevent: status\ndata: " + done + "\n\n", statuses: 1},
		{name: "stops reading at the terminal status", ctype: sse,
			body: "data: " + done + "\n\ndata: {not json\n\n", statuses: 1},
		{name: "malformed estimate", ctype: sse,
			body:   "event: estimate\ndata: {not json\n\nevent: status\ndata: " + done + "\n\n",
			jobErr: "decoding estimate event", statuses: 1},
		{name: "malformed status", ctype: sse, body: "data: {not json\n\n",
			jobErr: "decoding status event", sweepErr: "decoding status event"},
		{name: "ends early", ctype: sse, body: "event: status\ndata: " + running + "\n\n", statuses: 1,
			jobErr: "stream ended before a terminal state", sweepErr: "stream ended before a terminal state"},
		{name: "not an event stream", ctype: "application/json", body: done,
			jobErr: "not an event stream", sweepErr: "not an event stream"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := rawServer(t, func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", tc.ctype)
				_, _ = io.WriteString(w, tc.body)
			})
			ctx := context.Background()
			check := func(stream string, calls int, state string, err error, wantErr string) {
				t.Helper()
				switch {
				case wantErr != "":
					if err == nil || !strings.Contains(err.Error(), wantErr) {
						t.Errorf("%s: err = %v, want %q", stream, err, wantErr)
					}
				case err != nil || state != "done" || calls != tc.statuses:
					t.Errorf("%s: state %q after %d status calls, err %v; want done after %d",
						stream, state, calls, err, tc.statuses)
				}
			}
			jobCalls := 0
			jst, err := c.FollowJob(ctx, "x", func(jobs.Status) { jobCalls++ })
			check("job", jobCalls, string(jst.State), err, tc.jobErr)
			sweepCalls := 0
			sst, err := c.FollowSweep(ctx, "x", func(sweep.Status) { sweepCalls++ })
			check("sweep", sweepCalls, string(sst.State), err, tc.sweepErr)
		})
	}
}

// TestFollowEstimatesBeforeTerminal: an estimate frame written before
// the terminal status reaches FollowEstimates, and FollowJob still
// returns the terminal status past it.
func TestFollowEstimatesBeforeTerminal(t *testing.T) {
	c := rawServer(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		_, _ = io.WriteString(w, "event: estimate\ndata: {\"estimator\":\"avgdegree\",\"observations\":512}\n\n"+
			"event: status\ndata: {\"id\":\"x\",\"state\":\"done\"}\n\n")
	})
	ctx := context.Background()
	var reps []live.Report
	st, err := c.FollowEstimates(ctx, "x", func(r live.Report) { reps = append(reps, r) })
	if err != nil || st.State != jobs.StateDone {
		t.Fatalf("FollowEstimates = %s, %v", st.State, err)
	}
	if len(reps) != 1 || reps[0].Estimator != "avgdegree" || reps[0].Observations != 512 {
		t.Fatalf("reports = %+v, want the one avgdegree report", reps)
	}
	if st, err := c.FollowJob(ctx, "x", nil); err != nil || st.State != jobs.StateDone {
		t.Fatalf("FollowJob = %s, %v", st.State, err)
	}
}

// TestControlCallsWire pins each JSON control call's request — method,
// path, and body (a cancel sends none) — and checks that any 2xx reply
// decodes while a non-2xx one carries the server's error text.
func TestControlCallsWire(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name, method, path string
		body               bool // a JSON body is sent
		call               func(c *Client) error
	}{
		{"SubmitJob", "POST", "/v1/jobs", true, func(c *Client) error {
			_, err := c.SubmitJob(ctx, jobs.Spec{Method: "fs"})
			return err
		}},
		{"Job", "GET", "/v1/jobs/j1", false, func(c *Client) error { _, err := c.Job(ctx, "j1"); return err }},
		{"JobEstimates", "GET", "/v1/jobs/j1/estimates", false, func(c *Client) error {
			_, err := c.JobEstimates(ctx, "j1")
			return err
		}},
		{"JobTrace", "GET", "/v1/jobs/j1/trace", false, func(c *Client) error { _, err := c.JobTrace(ctx, "j1"); return err }},
		{"CancelJob", "POST", "/v1/jobs/j1/cancel", false, func(c *Client) error {
			_, err := c.CancelJob(ctx, "j1")
			return err
		}},
		{"SubmitSweep", "POST", "/v1/sweeps", true, func(c *Client) error {
			_, err := c.SubmitSweep(ctx, sweep.Spec{Artifact: "fig5"})
			return err
		}},
		{"Sweep", "GET", "/v1/sweeps/s1", false, func(c *Client) error { _, err := c.Sweep(ctx, "s1"); return err }},
		{"Sweeps", "GET", "/v1/sweeps", false, func(c *Client) error { _, err := c.Sweeps(ctx); return err }},
		{"SweepTrace", "GET", "/v1/sweeps/s1/trace", false, func(c *Client) error {
			_, err := c.SweepTrace(ctx, "s1")
			return err
		}},
		{"SweepArtifacts", "GET", "/v1/sweeps/s1/artifacts", false, func(c *Client) error {
			_, err := c.SweepArtifacts(ctx, "s1")
			return err
		}},
		{"SweepArtifact", "GET", "/v1/sweeps/s1/artifacts/fig5.csv", false, func(c *Client) error {
			_, err := c.SweepArtifact(ctx, "s1", "fig5.csv")
			return err
		}},
		{"CancelSweep", "POST", "/v1/sweeps/s1/cancel", false, func(c *Client) error {
			_, err := c.CancelSweep(ctx, "s1")
			return err
		}},
		{"Health", "GET", "/healthz", false, func(c *Client) error { _, err := c.Health(ctx); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var method, path string
			var body []byte
			reply := http.StatusAccepted
			c := rawServer(t, func(w http.ResponseWriter, r *http.Request) {
				method, path = r.Method, r.URL.Path
				body, _ = io.ReadAll(r.Body)
				if reply != http.StatusAccepted {
					http.Error(w, "boom", reply)
					return
				}
				w.WriteHeader(reply)
				_, _ = io.WriteString(w, "{}")
			})
			if err := tc.call(c); err != nil {
				t.Fatalf("202 reply: %v", err)
			}
			if method != tc.method || path != tc.path || (len(body) > 0) != tc.body {
				t.Fatalf("sent %s %s with body %q, want %s %s (body: %v)", method, path, body, tc.method, tc.path, tc.body)
			}
			reply = http.StatusInternalServerError
			if err := tc.call(c); err == nil || !strings.Contains(err.Error(), "status 500: boom") {
				t.Fatalf("500 reply: err = %v, want the status and server text", err)
			}
		})
	}
}

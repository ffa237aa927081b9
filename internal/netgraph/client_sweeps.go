package netgraph

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"time"

	"frontier/internal/sweep"
)

// SubmitSweep submits a paper-figure sweep to the server's sweep
// service (POST /v1/sweeps) and returns its initial status, including
// the full planned node tree. A spec without a Graph name inherits the
// client's WithGraph target.
func (c *Client) SubmitSweep(ctx context.Context, spec sweep.Spec) (sweep.Status, error) {
	if spec.Graph == "" {
		spec.Graph = c.graph
	}
	return call[sweep.Status](ctx, c, "sweep submit", http.MethodPost, "/v1/sweeps", spec)
}

// Sweep returns a sweep's status — the per-node state tree, artifacts
// and checks so far (GET /v1/sweeps/{id}).
func (c *Client) Sweep(ctx context.Context, id string) (sweep.Status, error) {
	return call[sweep.Status](ctx, c, "sweep "+id, http.MethodGet, "/v1/sweeps/"+id, nil)
}

// Sweeps lists every tracked sweep's status in submission order
// (GET /v1/sweeps).
func (c *Client) Sweeps(ctx context.Context) ([]sweep.Status, error) {
	out, err := call[SweepList](ctx, c, "sweeps", http.MethodGet, "/v1/sweeps", nil)
	return out.Sweeps, err
}

// CancelSweep cancels a sweep (POST /v1/sweeps/{id}/cancel): in-flight
// node jobs are cancelled and pending nodes skipped. Returns the
// status after the cancel was recorded.
func (c *Client) CancelSweep(ctx context.Context, id string) (sweep.Status, error) {
	return call[sweep.Status](ctx, c, "sweep cancel "+id, http.MethodPost, "/v1/sweeps/"+id+"/cancel", nil)
}

// SweepTrace fetches a sweep's stage-event timeline
// (GET /v1/sweeps/{id}/trace): one trace id spanning the sweep and
// every job it spawned, with submit/plan/node/artifact/terminal
// events.
func (c *Client) SweepTrace(ctx context.Context, id string) (sweep.Trace, error) {
	return call[sweep.Trace](ctx, c, "sweep trace "+id, http.MethodGet, "/v1/sweeps/"+id+"/trace", nil)
}

// SweepArtifacts lists a sweep's written artifact files with sizes and
// sha256 digests (GET /v1/sweeps/{id}/artifacts).
func (c *Client) SweepArtifacts(ctx context.Context, id string) ([]sweep.ArtifactInfo, error) {
	out, err := call[SweepArtifactList](ctx, c, "sweep artifacts "+id, http.MethodGet, "/v1/sweeps/"+id+"/artifacts", nil)
	return out.Artifacts, err
}

// SweepArtifact downloads one artifact file's bytes
// (GET /v1/sweeps/{id}/artifacts/{name}).
func (c *Client) SweepArtifact(ctx context.Context, id, name string) ([]byte, error) {
	op := "sweep artifact " + id + "/" + name
	resp, err := c.get(ctx, "/v1/sweeps/"+id+"/artifacts/"+name)
	if err != nil {
		return nil, fmt.Errorf("netgraph: %s: %w", op, err)
	}
	defer resp.Body.Close()
	if err := statusError(op, resp); err != nil {
		return nil, err
	}
	return io.ReadAll(resp.Body)
}

// WaitSweep waits for a sweep to reach a terminal state (or ctx to
// end) and returns its final status, preferring the SSE stream and
// falling back to polling every poll interval (<= 0 means the
// WithPollInterval setting).
func (c *Client) WaitSweep(ctx context.Context, id string, poll time.Duration) (sweep.Status, error) {
	if st, err := c.FollowSweep(ctx, id, nil); err == nil {
		return st, nil
	} else if ctx.Err() != nil {
		return st, err
	}
	return c.PollSweep(ctx, id, poll)
}

// PollSweep re-fetches a sweep's status every poll interval (<= 0
// means the WithPollInterval setting) until a terminal state.
func (c *Client) PollSweep(ctx context.Context, id string, poll time.Duration) (sweep.Status, error) {
	return pollUntil(ctx, c, poll, func() (sweep.Status, error) { return c.Sweep(ctx, id) }, sweepDone)
}

// FollowSweep subscribes to a sweep's SSE progress stream
// (GET /v1/sweeps/{id}/events), invoking fn (which may be nil) for
// every status event — node transitions, artifacts written — and
// returns the terminal status. The error is non-nil when the stream
// could not be opened or broke before a terminal event; callers
// wanting the polling fallback use WaitSweep.
func (c *Client) FollowSweep(ctx context.Context, id string, fn func(sweep.Status)) (sweep.Status, error) {
	return follow(ctx, c, "sweep events "+id, "/v1/sweeps/"+id+"/events", sweepDone, fn, nil)
}

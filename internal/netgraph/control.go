package netgraph

// The control plane's shared transport: jobs and sweeps make their JSON
// calls, read their SSE streams, poll and serve their streams through
// the helpers below, so a change to the wire is made once.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"frontier/internal/jobs"
	"frontier/internal/sweep"
)

// maxFrameBytes bounds one SSE line the client accepts. Sweep status
// frames carry the full node tree, so the bound is sized for hundreds
// of nodes.
const maxFrameBytes = 16 << 20

// jobDone and sweepDone report whether a status is terminal.
func jobDone(st jobs.Status) bool    { return st.State.Terminal() }
func sweepDone(st sweep.Status) bool { return st.State.Terminal() }

// statusError returns nil for a 2xx reply and otherwise an error
// naming op, the status and the start of the server's error text.
func statusError(op string, resp *http.Response) error {
	if resp.StatusCode/100 == 2 {
		return nil
	}
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	return fmt.Errorf("netgraph: %s: status %d: %s", op, resp.StatusCode, bytes.TrimSpace(msg))
}

// call performs one control-plane request and decodes its JSON reply
// into T. method is GET or POST; a POST sends in as its JSON body, or
// no body when in is nil.
func call[T any](ctx context.Context, c *Client, op, method, path string, in any) (T, error) {
	var out T
	var resp *http.Response
	var err error
	if method == http.MethodGet {
		resp, err = c.get(ctx, path)
	} else {
		var body []byte
		if in != nil {
			if body, err = json.Marshal(in); err != nil {
				return out, fmt.Errorf("netgraph: encoding %s: %w", op, err)
			}
		}
		resp, err = c.post(ctx, path, body)
	}
	if err != nil {
		return out, fmt.Errorf("netgraph: %s: %w", op, err)
	}
	defer resp.Body.Close()
	if err := statusError(op, resp); err != nil {
		return out, err
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return out, fmt.Errorf("netgraph: decoding %s: %w", op, err)
	}
	return out, nil
}

// frames maps an SSE event kind to the decoder of its data.
type frames map[string]func(data []byte) error

// decodeFrame returns a frame decoder that unmarshals into T and hands
// the value to fn. fn may be nil; the frame is still decoded, so a
// malformed one still fails the stream.
func decodeFrame[T any](fn func(T)) func([]byte) error {
	return func(data []byte) error {
		var v T
		if err := json.Unmarshal(data, &v); err != nil {
			return err
		}
		if fn != nil {
			fn(v)
		}
		return nil
	}
}

// follow reads the SSE stream at path until a status frame decodes to a
// value done accepts, and returns it. Frames without an event tag count
// as status frames (servers older than the estimate frames sent them
// untagged). Status frames go to onStatus (which may be nil), other
// kinds to their decoder in on; kinds without one are skipped, so the
// stream may grow new frame kinds without breaking old clients.
func follow[T any](ctx context.Context, c *Client, op, path string, done func(T) bool, onStatus func(T), on frames) (T, error) {
	var last T
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return last, err
	}
	req.Header.Set("Accept", "text/event-stream")
	setTraceHeader(req)
	resp, err := c.hc.Do(req)
	if err != nil {
		return last, fmt.Errorf("netgraph: %s: %w", op, err)
	}
	defer resp.Body.Close()
	if err := statusError(op, resp); err != nil {
		return last, err
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		return last, fmt.Errorf("netgraph: %s: not an event stream (%s)", op, ct)
	}

	status := decodeFrame(func(v T) {
		last = v
		if onStatus != nil {
			onStatus(v)
		}
	})
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), maxFrameBytes)
	event, data := "status", []byte(nil)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			decode := on[event]
			if event == "status" {
				decode = status
			}
			if len(data) > 0 && decode != nil {
				if err := decode(data); err != nil {
					return last, fmt.Errorf("netgraph: %s: decoding %s event: %w", op, event, err)
				}
			}
			event, data = "status", nil
			if done(last) {
				return last, nil
			}
		case strings.HasPrefix(line, "event:"):
			event = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
		case strings.HasPrefix(line, "data:"):
			data = append(data, strings.TrimPrefix(strings.TrimPrefix(line, "data:"), " ")...)
		default:
			// Comments and ids carry no payload we need.
		}
	}
	if err := sc.Err(); err != nil {
		return last, fmt.Errorf("netgraph: %s: %w", op, err)
	}
	return last, fmt.Errorf("netgraph: %s: stream ended before a terminal state", op)
}

// pollUntil calls fetch every poll interval (<= 0 means the client's
// WithPollInterval setting) until it returns a value done accepts, an
// error, or ctx ends.
func pollUntil[T any](ctx context.Context, c *Client, poll time.Duration, fetch func() (T, error), done func(T) bool) (T, error) {
	if poll <= 0 {
		poll = c.pollInterval
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		v, err := fetch()
		if err != nil || done(v) {
			return v, err
		}
		select {
		case <-ctx.Done():
			return v, ctx.Err()
		case <-t.C:
		}
	}
}

// serveEvents streams Server-Sent Events for one watched resource. It
// runs step now and again after every wake from watch, until step
// reports the resource terminal, a write fails or the client goes away.
// step writes frames through send, which marshals v into one
// "event: <kind>\ndata: <json>\n\n" frame and flushes it; after a failed
// write, send does nothing. Streams are level-triggered: changes
// between two wakes coalesce.
func serveEvents(w http.ResponseWriter, r *http.Request, watch func() (<-chan struct{}, func()),
	step func(send func(event string, v any)) (done bool)) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	// The stream outlives any server read or write deadline; clear both
	// so slow jobs and long sweeps are not cut off mid-stream — a server
	// ReadTimeout would otherwise fire its whole-connection deadline ~10s
	// in and cancel the request context (ignored where unsupported).
	rc := http.NewResponseController(w)
	_ = rc.SetWriteDeadline(time.Time{})
	_ = rc.SetReadDeadline(time.Time{})
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	var failed error
	send := func(event string, v any) {
		if failed != nil {
			return
		}
		data, err := json.Marshal(v)
		if err == nil {
			_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
		}
		if failed = err; err == nil {
			fl.Flush()
		}
	}
	wake, stop := watch()
	defer stop()
	for !step(send) && failed == nil {
		select {
		case <-r.Context().Done():
			return
		case <-wake:
		}
	}
}

package fleet

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestHTTPJobLifecycle(t *testing.T) {
	b, _ := testBroker(t)
	srv := httptest.NewServer(b.Handler())
	defer srv.Close()

	post := func(path, body string) *http.Response {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	get := func(path string) *http.Response {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	readAll := func(resp *http.Response) string {
		t.Helper()
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				return sb.String()
			}
		}
	}

	if resp := post("/jobs", `{"instr": "not a number"}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed spec: status %d, want 400", resp.StatusCode)
	}
	if resp := post("/jobs", `{"unknown_field": 1}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: status %d, want 400 (DisallowUnknownFields)", resp.StatusCode)
	}
	// The event-queue selector is retired; a submitted spec still
	// carrying it is refused, not silently ignored.
	if resp := post("/jobs", `{"engine": "heap"}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("retired engine field: status %d, want 400", resp.StatusCode)
	}
	if resp := post("/jobs", `{"workloads": ["no-such"]}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad workload: status %d, want 400", resp.StatusCode)
	}

	resp := post("/jobs", `{"workloads":["vips"],"schemes":["baseline","tetris"],"instr":1000,"figs":[13]}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, want 202", resp.StatusCode)
	}
	body := readAll(resp)
	if !strings.Contains(body, `"job"`) || !strings.Contains(body, "j0000") {
		t.Fatalf("submit body: %s", body)
	}

	if resp := get("/jobs/j0000"); resp.StatusCode != http.StatusOK {
		t.Errorf("status: %d, want 200", resp.StatusCode)
	}
	if resp := get("/jobs/j9999"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status: %d, want 404", resp.StatusCode)
	}
	if resp := get("/jobs/j0000/result"); resp.StatusCode != http.StatusConflict {
		t.Errorf("result of a running job: %d, want 409", resp.StatusCode)
	}
	if resp := get("/jobs"); !strings.Contains(readAll(resp), "j0000") {
		t.Error("job list missing the submitted job")
	}

	// Complete the job through the RPC surface, then fetch the result.
	wid := register(t, b, "http-test")
	drainAll(t, b, wid)
	resp = get("/jobs/j0000/wait")
	if resp.StatusCode != http.StatusOK || !strings.Contains(readAll(resp), `"completed"`) {
		t.Fatalf("wait: status %d", resp.StatusCode)
	}
	resp = get("/jobs/j0000/result")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: status %d, want 200", resp.StatusCode)
	}
	if table := readAll(resp); !strings.Contains(table, "vips") {
		t.Errorf("result table missing workload row:\n%s", table)
	}

	// Event history as NDJSON, without following the live stream.
	resp = get("/jobs/j0000/events?follow=0")
	events := readAll(resp)
	if !strings.Contains(events, `"type":"submitted"`) || !strings.Contains(events, `"type":"completed"`) {
		t.Errorf("event stream incomplete:\n%s", events)
	}

	if resp := get("/workers"); !strings.Contains(readAll(resp), "http-test") {
		t.Error("workers listing missing the registered worker")
	}
	if resp := get("/metrics"); !strings.Contains(readAll(resp), "fleet_shards_completed") {
		t.Error("metrics missing fleet counters")
	}
	if resp := get("/healthz"); !strings.Contains(readAll(resp), `"ok": true`) {
		t.Error("healthz not ok")
	}
	if resp := get("/version"); !strings.Contains(readAll(resp), "pcmsimd version") {
		t.Error("version endpoint broken")
	}

	// Cancel a second, untouched job.
	post("/jobs", `{"workloads":["vips"],"schemes":["fnw"],"instr":1000}`)
	resp = post("/jobs/j0001/cancel", "")
	if resp.StatusCode != http.StatusOK || !strings.Contains(readAll(resp), `"cancelled"`) {
		t.Errorf("cancel: status %d", resp.StatusCode)
	}
}

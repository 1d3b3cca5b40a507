package agg_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xplacer/internal/agg"
)

// TestSnapshotJSONMatchesReport checks that the JSON a snapshot caches and
// /snapshot serves is byte for byte what diag.Report.JSON writes, for a
// reader-built stale snapshot and for an exact one.
func TestSnapshotJSONMatchesReport(t *testing.T) {
	g := agg.New(agg.WithSnapshotMaxAge(0))
	defer g.Close()
	if err := g.Ingest(bytes.NewReader(captureStream(t, "default", "sw"))); err != nil {
		t.Fatal(err)
	}
	p := g.Find("default", "sw")
	if p == nil {
		t.Fatal("no proc default/sw")
	}
	want := p.Report() // exact: every frame applied
	var wantJSON bytes.Buffer
	if err := want.JSON(&wantJSON); err != nil {
		t.Fatal(err)
	}
	for _, s := range []*agg.Snapshot{p.Published(0), p.Published(time.Hour)} {
		var enc bytes.Buffer
		if err := s.Report.JSON(&enc); err != nil {
			t.Fatal(err)
		}
		got, err := s.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, enc.Bytes()) || !bytes.Equal(got, wantJSON.Bytes()) {
			t.Fatalf("cached snapshot JSON differs from Report.JSON:\n%s\nvs\n%s", got, enc.Bytes())
		}
		if again, _ := s.JSON(); &again[0] != &got[0] {
			t.Error("snapshot JSON was encoded twice")
		}
	}
	rec := httptest.NewRecorder()
	g.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/snapshot?tenant=default&process=sw", nil))
	if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), wantJSON.Bytes()) {
		t.Fatalf("/snapshot served %d:\n%s\nwant\n%s", rec.Code, rec.Body.Bytes(), wantJSON.Bytes())
	}
}

// TestStaleAndFreshPollsDuringIngest runs stale /snapshot polls (rebuilt
// on the polling goroutine whenever the published snapshot has expired),
// &fresh=1 polls (queue barriers) and ingest of several streams
// concurrently, and requires that an exact snapshot taken after the
// ingest still equals the in-process report byte for byte. Run with
// -race in CI.
func TestStaleAndFreshPollsDuringIngest(t *testing.T) {
	want := inProcessJSON(t, equivApps[0].name, equivApps[0].run)
	target := captureStream(t, "default", "sw")
	others := make([][]byte, 3)
	for i := range others {
		others[i] = captureStream(t, "other", fmt.Sprintf("p%d", i))
	}

	for round := 0; round < 3; round++ {
		// A tiny max-age makes nearly every stale poll rebuild.
		g := agg.New(agg.WithSnapshotMaxAge(time.Microsecond), agg.WithQueueDepth(8))
		h := g.Handler()
		poll := func(query string) (int, []byte) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/snapshot?"+query, nil))
			return rec.Code, rec.Body.Bytes()
		}

		var ingest sync.WaitGroup
		ingest.Add(1 + len(others))
		go func() {
			defer ingest.Done()
			if err := g.Ingest(bytes.NewReader(target)); err != nil {
				t.Error(err)
			}
		}()
		for _, o := range others {
			go func(o []byte) {
				defer ingest.Done()
				if err := g.Ingest(bytes.NewReader(o)); err != nil {
					t.Error(err)
				}
			}(o)
		}

		var stop atomic.Bool
		var pollers sync.WaitGroup
		var served atomic.Int64
		for i, q := range []string{
			"tenant=default&process=sw",
			"tenant=default&process=sw",
			"tenant=default&process=sw&fresh=1",
			"tenant=other&process=p0",
			"tenant=other&process=p1&fresh=1",
		} {
			pollers.Add(1)
			go func(i int, q string) {
				defer pollers.Done()
				for !stop.Load() {
					code, body := poll(q)
					if code == http.StatusNotFound {
						continue // the stream's hello has not landed yet
					}
					var v map[string]any
					if code != http.StatusOK || json.Unmarshal(body, &v) != nil || v["schema_version"] == nil {
						t.Errorf("poller %d: %s -> %d, malformed body %.80q", i, q, code, body)
						return
					}
					served.Add(1)
				}
			}(i, q)
		}
		ingest.Wait()
		code, got := poll("tenant=default&process=sw&fresh=1")
		stop.Store(true)
		pollers.Wait()
		if code != http.StatusOK || !bytes.Equal(got, want) {
			t.Fatalf("round %d: exact snapshot after concurrent polls differs from the in-process report\n--- in-process ---\n%s\n--- fresh=1 ---\n%s", round, want, got)
		}
		// With nothing pending, the published snapshot is exact: a stale
		// poll serves the same bytes.
		if _, stale := poll("tenant=default&process=sw"); !bytes.Equal(stale, want) {
			t.Errorf("round %d: stale poll after an exact snapshot differs", round)
		}
		if served.Load() == 0 {
			t.Errorf("round %d: no poll was served during ingest", round)
		}
		g.Close()
	}
}

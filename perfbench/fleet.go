package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"xplacer/internal/agg"
	"xplacer/internal/apps/lulesh"
	"xplacer/internal/apps/rodinia"
	"xplacer/internal/apps/sw"
	"xplacer/internal/core"
	"xplacer/internal/machine"
	"xplacer/internal/record"
	"xplacer/internal/wire"
)

const (
	// fleetTenant is the tenant every captured stream names.
	fleetTenant = "bench"
	// pollInterval is the open-loop /snapshot poll schedule: 50 Hz, so an
	// interval fits in the Smith-Waterman stream's ingest (15-30 ms) and
	// the poller sees more than the LULESH proc.
	pollInterval = 20 * time.Millisecond
	// pollTimeout bounds one poll; a failed poll counts as this latency,
	// above every latency limit.
	pollTimeout = 5 * time.Second
)

// fleetApp is one client process whose stream the fleet replays.
type fleetApp struct {
	name string
	run  func(o options, s *core.Session) error
}

var fleetApps = []fleetApp{
	{"lulesh", func(o options, s *core.Session) error {
		cfg := lulesh.Config{Size: 16, Timesteps: 4}
		if o.tiny {
			cfg.Size, cfg.Timesteps = 6, 2
		}
		_, err := lulesh.Run(s, cfg)
		return err
	}},
	{"sw", func(o options, s *core.Session) error {
		n := 256
		if o.tiny {
			n = 32
		}
		_, err := sw.Run(s, sw.Config{N: n, M: n, Seed: o.seed, Traceback: true})
		return err
	}},
	{"pathfinder", func(o options, s *core.Session) error {
		cfg := rodinia.PathfinderConfig{Cols: 1024, Rows: 201, Pyramid: 20, Seed: o.seed}
		if o.tiny {
			cfg = rodinia.PathfinderConfig{Cols: 128, Rows: 41, Pyramid: 10, Seed: o.seed}
		}
		_, err := rodinia.RunPathfinder(s, cfg)
		return err
	}},
}

var fleetWorkload = &workload{
	name:        "fleet-ingest",
	opsPerChild: len(fleetApps),
	setup:       fleetSetup,
	op:          fleetOp,
}

// fleetSetup runs each client app once, capturing its wire stream and,
// in the same session, building the report an in-process analysis gives
// (the shape the aggregator's exact snapshot must match byte for byte).
func fleetSetup(o options, dir string) childResult {
	res := childResult{Ops: 1}
	start := time.Now()
	plat, err := machine.ByName(platform)
	if err != nil {
		res.fail("%v", err)
		return res
	}
	for _, app := range fleetApps {
		stream, report, bye, err := capture(o, plat, app)
		if err != nil {
			res.fail("%s: %v", app.name, err)
			return res
		}
		// Batch boundaries depend on which processor slots the recording
		// goroutine used, so the frames may differ between set-ups; the
		// records and the report may not. The first set-up's stream is the
		// run's input.
		byeJSON, _ := json.Marshal(bye) // a struct of integers always encodes
		for ext, data := range map[string][]byte{".wire": stream, ".bye": byeJSON} {
			if _, err := os.Stat(filepath.Join(dir, app.name+ext)); os.IsNotExist(err) {
				err = os.WriteFile(filepath.Join(dir, app.name+ext), data, 0o644)
				if err != nil {
					res.fail("%v", err)
				}
			}
		}
		for ext, data := range map[string][]byte{".json": report, ".records": []byte(strconv.FormatInt(bye.Records, 10))} {
			if err := keepOrCompare(filepath.Join(dir, app.name+ext), data); err != nil {
				res.fail("%v", err)
			}
		}
	}
	res.Seconds = time.Since(start).Seconds()
	return res
}

func capture(o options, plat *machine.Platform, app fleetApp) (stream, report []byte, bye wire.Bye, err error) {
	s, err := core.NewSession(plat)
	if err != nil {
		return nil, nil, bye, err
	}
	hm := record.NewHeatmapSink(s.Tracer.Table())
	s.Tracer.AddSink(hm)
	ps := s.Tracer.EnablePatterns(s.Ctx.Now)
	var buf bytes.Buffer
	ss, err := wire.NewStreamSink(&buf, wire.Config{
		Hello: wire.Hello{Tenant: fleetTenant, Process: app.name, Platform: plat.Name},
		Clock: s.Ctx.Now,
	})
	if err != nil {
		return nil, nil, bye, err
	}
	s.Tracer.EnableStream(ss)
	if err := app.run(o, s); err != nil {
		return nil, nil, bye, err
	}
	s.Tracer.Flush()
	if err := ss.Close(); err != nil {
		return nil, nil, bye, err
	}

	r := tableReport(fleetTenant+"/"+app.name, plat, s.Tracer.Table(), hm, ps)
	var rep bytes.Buffer
	if err := r.JSON(&rep); err != nil {
		return nil, nil, bye, err
	}

	err = wire.ReadStream(bytes.NewReader(buf.Bytes()), wire.StreamHandler{
		Hello: func(wire.Hello) (wire.Handler, error) { return wire.Handler{}, nil },
		Bye:   func(b wire.Bye) { bye = b },
	})
	if err != nil {
		return nil, nil, bye, fmt.Errorf("decode captured stream: %w", err)
	}
	if batches, records := ss.Counts(); bye.Batches != batches || bye.Records != records || bye.DroppedRecords != 0 {
		return nil, nil, bye, fmt.Errorf("bye %+v disagrees with the sink's %d batches, %d records", bye, batches, records)
	}
	return buf.Bytes(), rep.Bytes(), bye, nil
}

// fleetInput is one captured client stream and its expected outcome.
type fleetInput struct {
	name   string
	stream []byte
	report []byte
	bye    wire.Bye
}

func loadFleet(dir string) ([]fleetInput, error) {
	var in []fleetInput
	for _, app := range fleetApps {
		f := fleetInput{name: app.name}
		var err error
		if f.stream, err = os.ReadFile(filepath.Join(dir, app.name+".wire")); err != nil {
			return nil, err
		}
		if f.report, err = os.ReadFile(filepath.Join(dir, app.name+".json")); err != nil {
			return nil, err
		}
		b, err := os.ReadFile(filepath.Join(dir, app.name+".bye"))
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(b, &f.bye); err != nil {
			return nil, err
		}
		in = append(in, f)
	}
	return in, nil
}

// fleetOp replays the captured streams over loopback TCP into a fresh
// aggregator, closed-loop, while polling /snapshot on a fixed schedule.
// Senders plus the poller use at most nproc connections.
func fleetOp(o options, dir string, rec *recorder) childResult {
	res := childResult{Ops: len(fleetApps)}
	in, err := loadFleet(dir)
	if err != nil {
		res.Failed = res.Ops
		res.Errors = append(res.Errors, err.Error())
		return res
	}
	g := agg.New()
	ingestLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		res.fail("%v", err)
		return res
	}
	httpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		ingestLn.Close()
		res.fail("%v", err)
		return res
	}
	var mu sync.Mutex
	var serveErrs []error
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		_ = g.Serve(ingestLn, func(err error) { // returns nil once the listener closes
			mu.Lock()
			serveErrs = append(serveErrs, err)
			mu.Unlock()
		})
	}()
	srv := &http.Server{Handler: g.Handler()}
	httpDone := make(chan struct{})
	go func() {
		defer close(httpDone)
		_ = srv.Serve(httpLn) // returns http.ErrServerClosed after Close
	}()
	defer func() {
		srv.Close()
		ingestLn.Close()
		<-serveDone
		<-httpDone
	}()
	client := &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		Timeout:   pollTimeout,
	}
	defer client.CloseIdleConnections()
	base := "http://" + httpLn.Addr().String() + "/snapshot?tenant=" + fleetTenant + "&process="

	// Timed part: first byte to the Close barrier.
	start := time.Now()
	opID := rec.begin("op", 0, laneMain)
	senders := max(1, min(len(in), runtime.NumCPU()-1))
	sendErrs := make([]error, len(in))
	var active atomic.Int32 // the stream a sender started last
	var wg sync.WaitGroup
	for k := 0; k < senders; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := k; i < len(in); i += senders {
				active.Store(int32(i))
				id := rec.begin("agg.stream", opID, laneSend+k)
				sendErrs[i] = send(ingestLn.Addr().String(), in[i].stream)
				rec.end(id)
			}
		}(k)
	}
	ingested := make(chan struct{})
	go func() {
		wg.Wait()
		close(ingested)
	}()
	// Poll the proc being ingested, so reads stay beside writes; until
	// the aggregator has seen the newest stream's hello, keep polling the
	// previous one.
	polled := -1
	target := func() string {
		if i := int(active.Load()); g.Find(fleetTenant, in[i].name) != nil {
			polled = i
		}
		if polled < 0 {
			return ""
		}
		return base + in[polled].name
	}
	polls := pollSnapshots(client, target, ingested, rec, opID)
	<-ingested
	served, builds := g.SnapshotStats()
	var stalls int64
	for _, p := range g.Procs() {
		_, _, st := p.QueueStats()
		stalls += st
	}
	closeID := rec.begin("agg.close", opID, laneMain)
	g.Close()
	rec.end(closeID)
	end := time.Now()
	rec.end(opID)

	// Checks.
	res.Ops += len(polls.latencies)
	res.Failed += polls.failed
	res.Errors = append(res.Errors, polls.errors...)
	mu.Lock()
	for _, err := range serveErrs {
		res.Errors = append(res.Errors, err.Error())
	}
	failedStreams := min(len(serveErrs), len(in))
	mu.Unlock()
	for i, f := range in {
		if err := checkStream(g, client, base, f, sendErrs[i]); err != nil {
			res.Errors = append(res.Errors, f.name+": "+err.Error())
			failedStreams++
		}
	}
	res.Failed += min(failedStreams, len(in))

	_, _, batches, records, _, _, _ := g.Totals()
	res.Seconds = end.Sub(start).Seconds()
	res.Samples = polls.latencies
	res.set("records", float64(records))
	res.set("poll_late_ms_max", polls.lateMax)
	if rec == nil {
		return res
	}
	res.set("agg.batches", float64(batches))
	res.set("agg.records", float64(records))
	res.set("agg.queue_stalls", float64(stalls))
	res.set("agg.snapshot_builds", float64(builds))
	res.set("agg.snapshot_hit_ratio", ratio(float64(served), float64(served+builds)))

	plat, err := machine.ByName(platform)
	if err != nil {
		res.fail("%v", err)
		return res
	}
	streams := make([][]byte, len(in))
	for i, f := range in {
		streams[i] = f.stream
	}
	reps, vals, err := replayLayers(plat, rec, streams)
	if err != nil {
		res.fail("%v", err)
		return res
	}
	for k, v := range vals {
		res.set(k, v)
	}
	var reportBytes int
	for i, r := range reps {
		var buf bytes.Buffer
		id := rec.begin("diag.report", 0, laneReplay)
		err := r.report(fleetTenant+"/"+in[i].name, &buf)
		rec.end(id)
		if err != nil || !bytes.Equal(buf.Bytes(), in[i].report) {
			res.fail("%s: replayed report differs from the in-process report (%v)", in[i].name, err)
		}
		reportBytes += buf.Len()
	}
	res.set("report_bytes", float64(reportBytes))
	return res
}

// send writes one stream on a fresh connection and waits until the
// aggregator has decoded all of it (it closes the connection then).
func send(addr string, stream []byte) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	if _, err := conn.Write(stream); err != nil {
		return err
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		if err := tc.CloseWrite(); err != nil {
			return err
		}
	}
	_, err = io.Copy(io.Discard, conn)
	return err
}

// checkStream checks one replayed stream: it was sent whole, the
// aggregator applied what the bye says was sent, and its exact snapshot
// is byte-identical to the in-process report.
func checkStream(g *agg.Aggregator, client *http.Client, base string, f fleetInput, sendErr error) error {
	if sendErr != nil {
		return sendErr
	}
	p := g.Find(fleetTenant, f.name)
	if p == nil {
		return errors.New("aggregator has no state for the stream")
	}
	batches, records, _, dropped := p.Stats()
	if batches != f.bye.Batches || records != f.bye.Records || dropped != 0 {
		return fmt.Errorf("applied %d batches, %d records (%d dropped); bye says %d, %d", batches, records, dropped, f.bye.Batches, f.bye.Records)
	}
	resp, err := client.Get(base + f.name + "&fresh=1")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, f.report) {
		return fmt.Errorf("exact snapshot (status %d) differs from the in-process report", resp.StatusCode)
	}
	return nil
}

// pollResult is one run's /snapshot polls.
type pollResult struct {
	latencies []float64 // ms from when each poll was due
	lateMax   float64   // ms the generator sent behind schedule, worst case
	failed    int
	errors    []string
}

// pollSnapshots polls the URL target names on the fixed open-loop
// schedule, from the moment it names one until stop closes. Each latency
// runs from when the poll was due, so a slow answer also charges the
// polls queued behind it.
func pollSnapshots(client *http.Client, target func() string, stop <-chan struct{}, rec *recorder, parent int) pollResult {
	var pr pollResult
	for target() == "" {
		select {
		case <-stop:
			return pr
		case <-time.After(100 * time.Microsecond):
		}
	}
	t0 := time.Now()
	for k := 0; ; k++ {
		due := t0.Add(time.Duration(k) * pollInterval)
		select {
		case <-stop:
			return pr
		case <-time.After(time.Until(due)):
		}
		sent := time.Now()
		pr.lateMax = max(pr.lateMax, float64(sent.Sub(due))/1e6)
		id := rec.begin("bench.poll", parent, lanePoll)
		err := pollOnce(client, target())
		rec.end(id)
		lat := float64(time.Since(due)) / 1e6
		if err != nil {
			pr.failed++
			pr.errors = append(pr.errors, "poll: "+err.Error())
			lat = float64(pollTimeout) / 1e6
		}
		pr.latencies = append(pr.latencies, lat)
	}
}

func pollOnce(client *http.Client, url string) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	if !json.Valid(body) {
		return errors.New("malformed JSON")
	}
	return nil
}

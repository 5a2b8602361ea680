package main

// Layer: qcoordd — the real daemon as a subprocess, driven closed-loop over
// the host's loopback interface (no real link is crossed). This is the only
// place with real concurrency and a real wire, and it does not repeat well
// on a shared box, which is why nothing here is gated.

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/benchmark/benchlib"
	"repro/benchmark/suite"
)

// daemon is a running qcoordd.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
}

// startDaemon launches qcoordd on an ephemeral loopback port and waits for
// the line announcing its address; the wait is the start-up time.
func startDaemon(root string) (*daemon, time.Duration, error) {
	bin, err := suite.Binary(root, "qcoordd")
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-metrics-out", "")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	line, err := bufio.NewReader(stdout).ReadString('\n')
	startup := time.Since(start)
	const announce = "qcoordd: listening on "
	if err != nil || !strings.HasPrefix(line, announce) {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		return nil, 0, fmt.Errorf("qcoordd did not announce its address (read %q): %v", line, err)
	}
	// Nothing else is expected on stdout; drain it so the daemon never blocks.
	go func() { _, _ = io.Copy(io.Discard, stdout) }()
	return &daemon{cmd: cmd, base: "http://" + strings.TrimSpace(strings.TrimPrefix(line, announce))}, startup, nil
}

// stop drains the daemon with SIGTERM and waits for it to exit, killing it
// if the drain outlasts ten seconds.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		return fmt.Errorf("qcoordd did not drain within 10s: %v", <-done)
	}
}

// rssMB reads the daemon's resident set from /proc (0 where there is none).
func (d *daemon) rssMB() float64 {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// post sends one request and reads the whole response.
func post(c *http.Client, url string, body []byte) error {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("POST %s: %s", url, resp.Status)
	}
	return nil
}

// closedLoop drives conns connections, each sending its next request only
// after the previous reply, for dur. It returns every round-trip time and
// the request rate.
func closedLoop(ctx context.Context, c *http.Client, url string, bodies [][]byte, conns int, dur time.Duration) ([]float64, float64, error) {
	ctx, cancel := context.WithTimeout(ctx, dur)
	defer cancel()
	rtts := make([][]float64, conns)
	errs := make([]error, conns)
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < conns; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ctx.Err() == nil; i++ {
				t0 := time.Now()
				if err := post(c, url, bodies[(g+i*conns)%len(bodies)]); err != nil {
					errs[g] = err
					return
				}
				rtts[g] = append(rtts[g], float64(time.Since(t0).Nanoseconds()))
			}
		}(g)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []float64
	for g := range rtts {
		if errs[g] != nil {
			return nil, 0, errs[g]
		}
		all = append(all, rtts[g]...)
	}
	return all, float64(len(all)) / elapsed.Seconds(), nil
}

// probeQcoordd measures the daemon over loopback: start-up, single-decide
// and 64-round-batch round trips on one connection, request rate on one and
// on nproc connections, resident memory, and the wire's share of a round
// trip against the in-memory handler time probeServe measured — the input to
// ROADMAP item 1's binary-wire decision rule.
func probeQcoordd(m values, root string, dur time.Duration) error {
	d, startup, err := startDaemon(root)
	if err != nil {
		return err
	}
	m["qcoordd.startup_ms"] = startup.Seconds() * 1e3
	probe := func() error {
		conns := runtime.NumCPU()
		client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: conns}}
		defer client.CloseIdleConnections()
		mix := benchlib.GenMix(13, 2e4, 50*time.Millisecond, 8)
		var single, batch [][]byte
		for _, s := range mix.Sessions {
			body := fmt.Sprintf(`{"id":%q,"endpoints":[%q,%q],"seed":%d}`, s.ID, s.Endpoints[0], s.Endpoints[1], s.Seed)
			if err := post(client, d.base+"/v1/sessions", []byte(body)); err != nil {
				return err
			}
		}
		for i := range mix.Ops {
			body := mix.Ops[i].Body(mix.Sessions[mix.Ops[i].Session].ID)
			switch mix.Ops[i].Kind {
			case benchlib.OpSingle:
				single = append(single, body)
			case benchlib.OpBatch:
				batch = append(batch, body)
			}
		}
		ctx := context.Background()
		rtt, rate, err := closedLoop(ctx, client, d.base+"/v1/decide", single, 1, dur)
		if err != nil {
			return err
		}
		m["qcoordd.rtt_us_p50.single"] = benchlib.Quantile(rtt, 0.50) / 1e3
		m["qcoordd.rtt_us_p99.single"] = benchlib.Quantile(rtt, 0.99) / 1e3
		m["qcoordd.req_per_s.c1"] = rate
		rtt, _, err = closedLoop(ctx, client, d.base+"/v1/decide/batch", batch, 1, dur)
		if err != nil {
			return err
		}
		m["qcoordd.rtt_us_p50.batch64"] = benchlib.Quantile(rtt, 0.50) / 1e3
		m["qcoordd.rtt_us_p99.batch64"] = benchlib.Quantile(rtt, 0.99) / 1e3
		if _, rate, err = closedLoop(ctx, client, d.base+"/v1/decide", single, conns, dur); err != nil {
			return err
		}
		m["qcoordd.req_per_s.cN"] = rate
		m["qcoordd.rss_mb"] = d.rssMB()
		m["qcoordd.wire_share.single"] = 1 - m["serve.handler_us_p50.single"]/m["qcoordd.rtt_us_p50.single"]
		m["qcoordd.wire_share.batch64"] = 1 - m["serve.handler_us_p50.batch64"]/m["qcoordd.rtt_us_p50.batch64"]
		return nil
	}
	err = probe()
	if stopErr := d.stop(); err == nil && stopErr != nil {
		err = fmt.Errorf("qcoordd did not exit cleanly: %w", stopErr)
	}
	return err
}

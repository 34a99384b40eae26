package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// readyTimeout bounds how long daemons may take to come up.
const readyTimeout = 30 * time.Second

// cluster is one running daemon layout: a daemon with local slots, or a
// control daemon with two joined workers.
type cluster struct {
	base  string
	procs []*daemon
}

// daemon is one spawned aergiad process; exited closes when it has been
// reaped.
type daemon struct {
	cmd    *exec.Cmd
	exited chan struct{}
}

// startCluster spawns the daemons of a layout in dir and returns once
// /healthz answers and, for a fleet, GET /workers lists both workers. The
// returned duration runs from the first spawn to that point.
func (b *bench) startCluster(dir string, fleet bool) (*cluster, time.Duration, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	c := &cluster{base: "http://" + addr}
	slots := "2"
	if fleet {
		slots = "-1"
	}
	start := time.Now()
	if err := c.spawn(b.aergiad, filepath.Join(dir, "control.log"),
		"-addr", addr, "-store", filepath.Join(dir, "store.jsonl"), "-jobs", slots); err != nil {
		return nil, 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), readyTimeout)
	defer cancel()
	if err := c.waitFor(ctx, func() bool {
		_, err := c.getJSON(ctx, "/healthz", nil)
		return err == nil
	}); err != nil {
		c.stop()
		return nil, 0, fmt.Errorf("daemon did not answer /healthz: %w", err)
	}
	if fleet {
		for i := 0; i < 2; i++ {
			if err := c.spawn(b.aergiad, filepath.Join(dir, fmt.Sprintf("worker%d.log", i)),
				"-worker", "-join", c.base, "-jobs", "1"); err != nil {
				c.stop()
				return nil, 0, err
			}
		}
		if err := c.waitFor(ctx, func() bool {
			var body struct {
				Workers []json.RawMessage `json:"workers"`
			}
			_, err := c.getJSON(ctx, "/workers", &body)
			return err == nil && len(body.Workers) == 2
		}); err != nil {
			c.stop()
			return nil, 0, fmt.Errorf("workers did not join: %w", err)
		}
	}
	return c, time.Since(start), nil
}

func (c *cluster) spawn(bin, logPath string, args ...string) error {
	logf, err := os.Create(logPath)
	if err != nil {
		return err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	// The daemons must not outlive the harness, whatever ends it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return fmt.Errorf("start %s: %w", bin, err)
	}
	// The child holds its own descriptor; the parent's copy is not needed.
	logf.Close()
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // a killed daemon reports its signal as an error
		close(d.exited)
	}()
	c.procs = append(c.procs, d)
	return nil
}

// pollEvery is how often waitFor polls. A set-up takes 5 to 15 ms, so a
// coarser step would show in setup_s as rounding noise.
const pollEvery = 200 * time.Microsecond

// waitFor polls ready every pollEvery until it holds or ctx ends.
func (c *cluster) waitFor(ctx context.Context, ready func() bool) error {
	for !ready() {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(pollEvery):
		}
		for _, p := range c.procs {
			select {
			case <-p.exited:
				return fmt.Errorf("daemon %v exited", p.cmd.Args)
			default:
			}
		}
	}
	return nil
}

// stop kills every daemon (workers first) and waits for each to exit. The
// stores are scratch, so nothing needs a graceful shutdown.
func (c *cluster) stop() {
	for i := len(c.procs) - 1; i >= 0; i-- {
		p := c.procs[i]
		_ = p.cmd.Process.Kill() // fails only if it already exited
		<-p.exited
	}
	c.procs = nil
}

// rssMB sums the peak resident set (VmHWM) of every daemon.
func (c *cluster) rssMB() (float64, error) {
	var kb float64
	for _, p := range c.procs {
		v, err := vmHWM(p.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		kb += v
	}
	return kb / 1024, nil
}

func vmHWM(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				break
			}
			return strconv.ParseFloat(fields[0], 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM for pid %d", pid)
}

// fedCounters sums the control's aergia_fed_leases_total and
// aergia_fed_heartbeats_total over all workers.
func (c *cluster) fedCounters(ctx context.Context) (leases, heartbeats float64, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return 0, 0, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		var dst *float64
		switch {
		case strings.HasPrefix(line, "aergia_fed_leases_total"):
			dst = &leases
		case strings.HasPrefix(line, "aergia_fed_heartbeats_total"):
			dst = &heartbeats
		default:
			continue
		}
		fields := strings.Fields(line)
		v, perr := strconv.ParseFloat(fields[len(fields)-1], 64)
		if perr != nil {
			return 0, 0, fmt.Errorf("parse metrics line %q: %w", line, perr)
		}
		*dst += v
	}
	return leases, heartbeats, sc.Err()
}

// getJSON GETs path and decodes the body into v (when non-nil). It returns
// the raw body.
func (c *cluster) getJSON(ctx context.Context, path string, v any) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	if v != nil {
		if err := json.Unmarshal(body, v); err != nil {
			return nil, fmt.Errorf("GET %s: %w", path, err)
		}
	}
	return body, nil
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

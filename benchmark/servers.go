package awcbench

import (
	"context"
	"errors"
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

	"autowebcache/internal/telemetry"
)

// NodeAddrs are one node's listen addresses, chosen at run time.
type NodeAddrs struct {
	HTTP, Admin, Peer string
}

// Deployment is a running set of nodes the generator can drive: real
// rubis-server processes (Boot) or the in-process traced stack.
type Deployment struct {
	Addrs []NodeAddrs
	// BootMS is the time from starting the first node to the last node's
	// first 200.
	BootMS float64
	// stop releases everything the deployment holds; it is idempotent.
	stop func() error
	// procs are the server processes (empty for the in-process stack).
	procs []*proc
}

type proc struct {
	cmd  *exec.Cmd
	done chan struct{} // closed when the process has been waited for
	err  error
	log  string
}

// Targets returns the nodes' HTTP addresses.
func (d *Deployment) Targets() []string {
	out := make([]string, len(d.Addrs))
	for i, a := range d.Addrs {
		out[i] = a.HTTP
	}
	return out
}

// Stop shuts the deployment down and waits until it has.
func (d *Deployment) Stop() error { return d.stop() }

// freeAddrs reserves n distinct loopback addresses by binding port 0. The
// listeners are closed before the servers bind, so a port can in principle
// be taken in between; Boot retries on a failed start.
func freeAddrs(n int) ([]string, error) {
	var ls []net.Listener
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	out := make([]string, n)
	for i := range out {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserve port: %w", err)
		}
		ls = append(ls, l)
		out[i] = l.Addr().String()
	}
	return out, nil
}

// peerPortBase starts the candidate sequence of peer-protocol ports. A
// node's peer address is its identity on the consistent-hash ring, so which
// node owns which page — and with it every cluster count — depends on these
// strings: node i takes the first free port of peerPortBase+i, +16, +32, …,
// which is the same port on every run unless something else holds it.
const peerPortBase = 47100

func nodeAddrs(n int) ([]NodeAddrs, error) {
	flat, err := freeAddrs(2 * n)
	if err != nil {
		return nil, err
	}
	addrs := make([]NodeAddrs, n)
	for i := range addrs {
		addrs[i] = NodeAddrs{HTTP: flat[2*i], Admin: flat[2*i+1]}
		for port := peerPortBase + i; addrs[i].Peer == "" && port < 1<<16; port += 16 {
			addr := fmt.Sprintf("127.0.0.1:%d", port)
			if l, err := net.Listen("tcp", addr); err == nil {
				l.Close()
				addrs[i].Peer = addr
			}
		}
		if addrs[i].Peer == "" {
			return nil, errors.New("no free peer port")
		}
	}
	return addrs, nil
}

// bootAttempts bounds the retries after a node failed to start (the only
// expected cause is a reserved port taken before the server bound it).
const bootAttempts = 3

// Boot starts the workload's rubis-server processes from bin with a fresh
// private directory under workdir, and returns once every node is healthy
// and has answered its first request. The directory is removed by Stop.
func Boot(ctx context.Context, bin string, w *Workload, workdir string) (*Deployment, error) {
	for attempt := 1; ; attempt++ {
		d, err := bootOnce(ctx, bin, w, workdir)
		if err == nil || attempt == bootAttempts || ctx.Err() != nil {
			return d, err
		}
	}
}

func bootOnce(ctx context.Context, bin string, w *Workload, workdir string) (_ *Deployment, err error) {
	dir, err := os.MkdirTemp(workdir, w.Name+"-")
	if err != nil {
		return nil, err
	}
	addrs, err := nodeAddrs(w.Nodes)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	d := &Deployment{Addrs: addrs}
	d.stop = func() error {
		err := stopProcs(d.procs)
		d.procs = nil
		if rerr := os.RemoveAll(dir); err == nil {
			err = rerr
		}
		return err
	}
	defer func() {
		if err != nil {
			d.stop()
		}
	}()

	start := time.Now()
	for i := range addrs {
		logPath := filepath.Join(dir, fmt.Sprintf("node%d.log", i))
		logf, err := os.Create(logPath)
		if err != nil {
			return nil, err
		}
		cmd := exec.Command(bin, w.ServerArgs(i, addrs, dir)...)
		cmd.Stdout, cmd.Stderr = logf, logf
		// The servers die with the benchmark even when it is killed
		// outright and never reaches Stop.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		err = cmd.Start()
		logf.Close()
		if err != nil {
			return nil, fmt.Errorf("start node %d: %w", i, err)
		}
		p := &proc{cmd: cmd, done: make(chan struct{}), log: logPath}
		go func() {
			p.err = cmd.Wait()
			close(p.done)
		}()
		d.procs = append(d.procs, p)
	}
	bootCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	for i, a := range addrs {
		for _, url := range []string{"http://" + a.Admin + "/healthz", "http://" + a.HTTP + "/"} {
			if err := awaitOK(bootCtx, url, d.procs[i]); err != nil {
				return nil, fmt.Errorf("node %d: %w\n%s", i, err, tailFile(d.procs[i].log))
			}
		}
	}
	d.BootMS = float64(time.Since(start)) / float64(time.Millisecond)
	return d, nil
}

// awaitOK polls url until it answers 200, the process exits or ctx ends.
func awaitOK(ctx context.Context, url string, p *proc) error {
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return err
		}
		if resp, err := http.DefaultClient.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-p.done:
			return fmt.Errorf("server exited before %s answered: %v", url, p.err)
		case <-ctx.Done():
			return fmt.Errorf("waiting for %s: %w", url, ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// stopProcs asks every process to shut down gracefully (the path that spills
// and closes an L2 store), kills what has not exited after five seconds, and
// waits for all of them.
func stopProcs(procs []*proc) error {
	for _, p := range procs {
		_ = p.cmd.Process.Signal(syscall.SIGTERM) // already-exited is fine
	}
	var firstErr error
	for i, p := range procs {
		select {
		case <-p.done:
		case <-time.After(5 * time.Second):
			_ = p.cmd.Process.Kill()
			<-p.done
			if firstErr == nil {
				firstErr = fmt.Errorf("node %d ignored SIGTERM and was killed", i)
			}
		}
	}
	return firstErr
}

func tailFile(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times; it is 100 on every Linux port Go runs on.
const clockTick = 100

// CPU returns the user+system CPU time the server processes have used.
func (d *Deployment) CPU() (time.Duration, error) {
	var ticks int64
	for _, p := range d.procs {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		// Fields after the parenthesised command name; utime and stime are
		// fields 14 and 15 of the whole line.
		_, rest, ok := strings.Cut(string(b), ") ")
		f := strings.Fields(rest)
		if !ok || len(f) < 13 {
			return 0, fmt.Errorf("unparseable /proc stat line %q", b)
		}
		for _, s := range f[11:13] {
			n, err := strconv.ParseInt(s, 10, 64)
			if err != nil {
				return 0, fmt.Errorf("/proc stat: %w", err)
			}
			ticks += n
		}
	}
	return time.Duration(ticks) * time.Second / clockTick, nil
}

// PeakRSSMiB returns the sum of the server processes' peak resident sets.
func (d *Deployment) PeakRSSMiB() (float64, error) {
	var kb int64
	for _, p := range d.procs {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		_, rest, ok := strings.Cut(string(b), "VmHWM:")
		f := strings.Fields(rest)
		if !ok || len(f) < 2 || f[1] != "kB" {
			return 0, errors.New("no VmHWM in /proc status")
		}
		n, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("VmHWM: %w", err)
		}
		kb += n
	}
	return float64(kb) / 1024, nil
}

// Counts is one reading of every node's /metrics: each counter or gauge
// family summed over its series and over the nodes.
type Counts map[string]float64

// Scrape reads every node's /metrics.
func (d *Deployment) Scrape(ctx context.Context) (Counts, error) {
	out := make(Counts)
	for _, a := range d.Addrs {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+a.Admin+"/metrics", nil)
		if err != nil {
			return nil, err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return nil, fmt.Errorf("scrape: %w", err)
		}
		sc, err := telemetry.ParseText(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("scrape %s: %w", a.Admin, err)
		}
		for name, fam := range sc.Families {
			if fam.Type == "histogram" {
				continue
			}
			for _, s := range fam.Samples {
				out[name] += s.Value
			}
		}
	}
	return out, nil
}

// Sub returns the per-family difference c - earlier.
func (c Counts) Sub(earlier Counts) Counts {
	out := make(Counts, len(c))
	for k, v := range c {
		out[k] = v - earlier[k]
	}
	return out
}

// ratio is a/b, and 0 when the base is 0: a layer that did no work has
// nothing to report.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

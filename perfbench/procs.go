package main

import (
	"bufio"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one launched serving process.
type proc struct {
	name string
	addr string // host:port it serves on
	cmd  *exec.Cmd
	done chan struct{}
}

var (
	procsMu sync.Mutex
	procs   = map[*proc]bool{}
)

// freeAddr returns a loopback address with a port nobody listens on yet.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// launch starts bin with args, its output appended to logPath. The process
// is killed if the benchmark dies.
func launch(name, bin, addr, logPath string, args ...string) (*proc, error) {
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, addr: addr, cmd: cmd, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait()
		logf.Close()
		close(p.done)
	}()
	procsMu.Lock()
	procs[p] = true
	procsMu.Unlock()
	return p, nil
}

// stop sends SIGTERM (jitd drains and checkpoints), escalating to SIGKILL,
// and returns once the process has exited.
func (p *proc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(20 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
	procsMu.Lock()
	delete(procs, p)
	procsMu.Unlock()
}

// stopAll stops every process still running.
func stopAll() {
	procsMu.Lock()
	var all []*proc
	for p := range procs {
		all = append(all, p)
	}
	procsMu.Unlock()
	for _, p := range all {
		p.stop()
	}
}

// waitReady polls url until it answers 200, failing if the process exits or
// the deadline passes.
func waitReady(p *proc, url string, deadline time.Duration) error {
	client := &http.Client{Timeout: time.Second}
	end := time.Now().Add(deadline)
	for time.Now().Before(end) {
		select {
		case <-p.done:
			return fmt.Errorf("%s exited during start-up", p.name)
		default:
		}
		resp, err := client.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("%s not ready after %v", p.name, deadline)
}

// shardNames are the routed workload's jitd shards.
var shardNames = []string{"s0", "s1"}

// serving is one set of serving processes and the address clients use.
type serving struct {
	front string // address the load generator talks to
	procs []*proc
}

func (c *serving) stop() {
	for _, p := range c.procs {
		p.stop()
	}
}

// startServing launches the workload's serving processes and returns once
// all of them answer, with the time that took.
func startServing(cfg runConfig, w workload, dataDir string) (*serving, float64, error) {
	logPath := filepath.Join(cfg.work, "serve.log")
	jitd := filepath.Join(cfg.bin, "jitd")
	start := time.Now()
	c := &serving{}
	if !w.routed {
		addr, err := freeAddr()
		if err != nil {
			return nil, 0, err
		}
		args := append([]string{"-addr", addr, "-method", w.method, "-data-dir", dataDir}, w.jitdArgs...)
		p, err := launch("jitd", jitd, addr, logPath, args...)
		if err != nil {
			return nil, 0, err
		}
		c.procs, c.front = []*proc{p}, addr
	} else {
		var shards []string
		var addrs []string
		for _, name := range shardNames {
			addr, err := freeAddr()
			if err != nil {
				return nil, 0, err
			}
			addrs = append(addrs, addr)
			shards = append(shards, fmt.Sprintf(`{"name":%q,"addr":%q}`, name, addr))
		}
		mapPath := filepath.Join(cfg.work, "cluster.json")
		if err := os.WriteFile(mapPath, []byte(`{"shards":[`+strings.Join(shards, ",")+`]}`), 0o644); err != nil {
			return nil, 0, err
		}
		for i, addr := range addrs {
			p, err := launch("jitd-"+shardNames[i], jitd, addr, logPath,
				"-addr", addr, "-method", w.method, "-cluster-config", mapPath, "-shard-name", shardNames[i])
			if err != nil {
				c.stop()
				return nil, 0, err
			}
			c.procs = append(c.procs, p)
		}
		raddr, err := freeAddr()
		if err != nil {
			c.stop()
			return nil, 0, err
		}
		p, err := launch("jitrouter", filepath.Join(cfg.bin, "jitrouter"), raddr, logPath,
			"-addr", raddr, "-cluster-config", mapPath)
		if err != nil {
			c.stop()
			return nil, 0, err
		}
		c.procs, c.front = append(c.procs, p), raddr
	}
	// Every process must answer; through the router that means a request
	// forwarded to a shard came back.
	for _, p := range c.procs {
		if err := waitReady(p, "http://"+p.addr+"/api/questions", 60*time.Second); err != nil {
			c.stop()
			return nil, 0, err
		}
	}
	return c, time.Since(start).Seconds(), nil
}

// cpuTicks returns utime+stime of pid in clock ticks.
func cpuTicks(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	u, err1 := strconv.ParseInt(fields[11], 10, 64)
	st, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc/%d/stat", pid)
	}
	return u + st, nil
}

// clockTick is the kernel's USER_HZ, which Linux fixes at 100 for /proc.
const clockTick = 100

func (c *serving) cpuMs() (float64, error) {
	var total int64
	for _, p := range c.procs {
		t, err := cpuTicks(p.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		total += t
	}
	return float64(total) * 1000 / clockTick, nil
}

// peakRSSMB sums VmHWM over the serving processes.
func (c *serving) peakRSSMB() (float64, error) {
	var kb int64
	for _, p := range c.procs {
		f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				v, err := strconv.ParseInt(strings.Fields(rest)[0], 10, 64)
				if err != nil {
					f.Close()
					return 0, err
				}
				kb += v
			}
		}
		f.Close()
	}
	return float64(kb) / 1024, nil
}

// hostCPU reads the aggregate cpu line of /proc/stat: steal and total ticks.
func hostCPU() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseInt(f, 10, 64)
		if i >= 8 { // guest time is already counted in user
			break
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

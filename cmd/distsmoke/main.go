// Command distsmoke is the end-to-end gate for distributed serving: it
// boots a real cluster — two cutfit-worker processes, a coordinator
// cutfitd (-workers) and a plain local cutfitd — then proves the
// distributed daemon is indistinguishable from the local one except for
// where the supersteps ran:
//
//  1. the loadgen mix runs against the coordinator with zero 5xx
//     (loadgen's exit contract);
//  2. /v1/run responses for pagerank, dynamicpr and cc are byte-equal
//     between the two daemons — before AND after the same edge batch is
//     appended to both (the new generation ships full shards);
//  3. the coordinator's metrics prove runs actually fanned out
//     (cutfit_dist_runs_total{mode="distributed"} > 0) and none fell
//     back to local (mode="fallback" stays 0) — a silently degraded
//     cluster fails the smoke even though results would still be right.
//
// The coordinator's final /metrics scrape is saved to -metrics-out; the
// nightly workflow archives it. Binaries are expected prebuilt in
// -bin-dir (make dist-smoke does this).
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"time"
)

func main() {
	binDir := flag.String("bin-dir", "./bin", "directory holding the prebuilt cutfitd, cutfit-worker and loadgen binaries")
	coordAddr := flag.String("coord-addr", "127.0.0.1:18081", "coordinator cutfitd listen address")
	localAddr := flag.String("local-addr", "127.0.0.1:18082", "plain local cutfitd listen address")
	workerAddrs := flag.String("worker-addrs", "127.0.0.1:19090,127.0.0.1:19091", "comma-separated cutfit-worker listen addresses")
	rps := flag.Float64("rps", 30, "loadgen arrival rate against the coordinator")
	duration := flag.Duration("duration", 10*time.Second, "loadgen duration")
	out := flag.String("out", "", "write the loadgen quantile table to this file")
	metricsOut := flag.String("metrics-out", "", "save the coordinator's final /metrics scrape to this file")
	flag.Parse()

	if err := run(*binDir, *coordAddr, *localAddr, strings.Split(*workerAddrs, ","), *rps, *duration, *out, *metricsOut); err != nil {
		fmt.Fprintln(os.Stderr, "distsmoke:", err)
		os.Exit(1)
	}
	fmt.Println("distsmoke: distributed serving is byte-equal to local and shed zero 5xx")
}

// proc is one child process that is killed when the smoke exits.
type proc struct{ cmd *exec.Cmd }

func start(name string, args ...string) (*proc, error) {
	cmd := exec.Command(name, args...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	return &proc{cmd: cmd}, nil
}

func (p *proc) stop() {
	if p == nil || p.cmd.Process == nil {
		return
	}
	p.cmd.Process.Kill()
	p.cmd.Wait()
}

func run(binDir, coordAddr, localAddr string, workerAddrs []string, rps float64, duration time.Duration, out, metricsOut string) error {
	client := &http.Client{Timeout: 30 * time.Second}
	var procs []*proc
	defer func() {
		for _, p := range procs {
			p.stop()
		}
	}()

	workerURLs := make([]string, len(workerAddrs))
	for i, addr := range workerAddrs {
		addr = strings.TrimSpace(addr)
		workerURLs[i] = "http://" + addr
		p, err := start(filepath.Join(binDir, "cutfit-worker"), "-addr", addr)
		if err != nil {
			return err
		}
		procs = append(procs, p)
	}
	coord, err := start(filepath.Join(binDir, "cutfitd"), "-addr", coordAddr, "-workers", strings.Join(workerURLs, ","))
	if err != nil {
		return err
	}
	procs = append(procs, coord)
	local, err := start(filepath.Join(binDir, "cutfitd"), "-addr", localAddr)
	if err != nil {
		return err
	}
	procs = append(procs, local)

	coordURL := "http://" + coordAddr
	localURL := "http://" + localAddr
	for _, u := range workerURLs {
		if err := waitReady(client, u+"/dist/v1/healthz"); err != nil {
			return err
		}
	}
	for _, u := range []string{coordURL, localURL} {
		if err := waitReady(client, u+"/healthz"); err != nil {
			return err
		}
	}

	// The coordinator must see every worker healthy before anything runs.
	cluster, err := get(client, coordURL+"/v1/cluster")
	if err != nil {
		return err
	}
	if !strings.Contains(string(cluster), `"mode":"distributed"`) || strings.Contains(string(cluster), `"healthy":false`) {
		return fmt.Errorf("cluster not fully healthy: %s", cluster)
	}

	// Register the identical deterministic graph on both daemons.
	edges := smokeEdges(0)
	reg := `{"name":"smoke","edges":` + strconv.Quote(edges) + `}`
	for _, u := range []string{coordURL, localURL} {
		if _, err := post(client, u+"/v1/graphs", reg); err != nil {
			return err
		}
	}

	// Phase 1: the loadgen mix at the coordinator; its exit code enforces
	// zero 5xx.
	lgArgs := []string{
		"-addr", coordURL, "-rps", fmt.Sprint(rps), "-duration", duration.String(),
		"-mix", "run=6,metrics=2,advise=1,append=1", "-parts", "6", "-iters", "4",
	}
	if out != "" {
		lgArgs = append(lgArgs, "-out", out)
	}
	lg := exec.Command(filepath.Join(binDir, "loadgen"), lgArgs...)
	lg.Stdout = os.Stdout
	lg.Stderr = os.Stderr
	if err := lg.Run(); err != nil {
		return fmt.Errorf("loadgen against the coordinator failed (5xx or transport error): %w", err)
	}

	// Phase 2: distributed run bodies must equal local ones byte for byte.
	if err := compareRuns(client, coordURL, localURL, "base generation"); err != nil {
		return err
	}

	// Phase 3: append the same batch to both, then compare again — this
	// run crosses a generation boundary, so the coordinator ships the new
	// generation's full shards.
	appendBody := `{"edges":` + strconv.Quote(smokeEdges(1)) + `}`
	var appendReplies [2][]byte
	for i, u := range []string{coordURL, localURL} {
		reply, err := post(client, u+"/v1/graphs/smoke/edges", appendBody)
		if err != nil {
			return err
		}
		appendReplies[i] = reply
	}
	if !bytes.Equal(appendReplies[0], appendReplies[1]) {
		return fmt.Errorf("append replies diverge:\ncoord: %s\nlocal: %s", appendReplies[0], appendReplies[1])
	}
	if err := compareRuns(client, coordURL, localURL, "grown generation"); err != nil {
		return err
	}

	// Phase 4: the metrics must prove distribution actually happened.
	scrape, err := get(client, coordURL+"/metrics")
	if err != nil {
		return err
	}
	if metricsOut != "" {
		if err := os.WriteFile(metricsOut, scrape, 0o644); err != nil {
			return err
		}
	}
	distributed := counterValue(scrape, `cutfit_dist_runs_total\{mode="distributed"\}`)
	fallback := counterValue(scrape, `cutfit_dist_runs_total\{mode="fallback"\}`)
	if distributed < 6 {
		return fmt.Errorf("only %g runs dispatched distributed, want >= 6 (did the pool attach?)", distributed)
	}
	if fallback > 0 {
		return fmt.Errorf("%g runs fell back to local execution; the cluster is silently degraded", fallback)
	}
	fmt.Printf("distsmoke: %g distributed runs, 0 fallbacks\n", distributed)
	return nil
}

// compareRuns posts identical /v1/run requests to both daemons for every
// distributed algorithm and requires byte-equal response bodies.
func compareRuns(client *http.Client, coordURL, localURL, phase string) error {
	for _, alg := range []string{"pagerank", "dynamicpr", "cc"} {
		body := `{"graph":"smoke","alg":"` + alg + `","strategy":"2D","parts":6,"iters":8}`
		coordRep, err := post(client, coordURL+"/v1/run", body)
		if err != nil {
			return fmt.Errorf("%s: coordinator %s: %w", phase, alg, err)
		}
		localRep, err := post(client, localURL+"/v1/run", body)
		if err != nil {
			return fmt.Errorf("%s: local %s: %w", phase, alg, err)
		}
		if !bytes.Equal(coordRep, localRep) {
			return fmt.Errorf("%s: %s run bodies diverge\ncoord: %s\nlocal: %s", phase, alg, coordRep, localRep)
		}
	}
	return nil
}

// smokeEdges builds the deterministic comparison graph: a ring with
// chords (round 0), or the appended batch extending it (round 1).
func smokeEdges(round int) string {
	var sb strings.Builder
	const n = 120
	if round == 0 {
		for i := 0; i < n; i++ {
			fmt.Fprintf(&sb, "%d %d\n", i, (i+1)%n)
			fmt.Fprintf(&sb, "%d %d\n", i, (i*7+3)%n)
		}
	} else {
		for i := 0; i < 30; i++ {
			fmt.Fprintf(&sb, "%d %d\n", (i*11)%n, n+i)
			fmt.Fprintf(&sb, "%d %d\n", n+i, (i*5+1)%n)
		}
	}
	return sb.String()
}

func waitReady(client *http.Client, url string) error {
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := client.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	return fmt.Errorf("%s did not become ready within 15s", url)
}

func get(client *http.Client, url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

func post(client *http.Client, url, body string) ([]byte, error) {
	resp, err := client.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST %s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(reply))
	}
	return reply, nil
}

// counterValue extracts one counter series' value from a Prometheus text
// scrape; absent series read as 0.
func counterValue(scrape []byte, seriesRe string) float64 {
	re := regexp.MustCompile(`(?m)^` + seriesRe + ` ([0-9.e+-]+)$`)
	m := re.FindSubmatch(scrape)
	if m == nil {
		return 0
	}
	v, err := strconv.ParseFloat(string(m[1]), 64)
	if err != nil {
		return 0
	}
	return v
}

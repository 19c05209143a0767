package main

import (
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"cutfit"
	"cutfit/internal/algorithms"
)

// TestAPIDocCoversRoutes keeps docs/API.md in sync with the daemon's
// routing table: every route the mux registers must appear in the doc
// as "METHOD /path". Adding an endpoint without documenting it fails
// here.
func TestAPIDocCoversRoutes(t *testing.T) {
	raw, err := os.ReadFile("../../docs/API.md")
	if err != nil {
		t.Fatalf("reading docs/API.md: %v", err)
	}
	doc := string(raw)
	for _, rt := range apiRoutes {
		if want := rt.method + " " + rt.path; !strings.Contains(doc, want) {
			t.Errorf("docs/API.md does not document the route %q", want)
		}
	}
}

// TestAPIDocListsRegistryAlgorithms keeps the `alg` lists of /v1/advise
// and /v1/run in docs/API.md equal to the algorithm registry, which both
// endpoints resolve names through.
func TestAPIDocListsRegistryAlgorithms(t *testing.T) {
	raw, err := os.ReadFile("../../docs/API.md")
	if err != nil {
		t.Fatalf("reading docs/API.md: %v", err)
	}
	doc := string(raw)
	want := algorithms.Names()
	sort.Strings(want)
	sentence := regexp.MustCompile("`alg`[^.]*\\.")
	name := regexp.MustCompile("`([a-z]+)`")
	for _, route := range []string{"POST /v1/advise", "POST /v1/run"} {
		i := strings.Index(doc, "## "+route)
		if i < 0 {
			t.Fatalf("docs/API.md has no section %q", route)
		}
		m := sentence.FindString(doc[i:])
		var got []string
		for _, n := range name.FindAllStringSubmatch(m, -1) {
			if n[1] != "alg" {
				got = append(got, n[1])
			}
		}
		sort.Strings(got)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("docs/API.md %s lists alg %v, registry has %v", route, got, want)
		}
	}
}

// TestOperationsDocCoversMetrics keeps the docs/OPERATIONS.md metrics
// catalog in sync with the live registry, in both directions: every
// registered series must appear backticked in the doc, and every
// backticked cutfit_… series the doc names must exist in the registry.
// The test binary links the whole stack (store, engine, block tier, the
// daemon's HTTP series), so cutfit.MetricNames() here is the full set a
// running daemon exports.
func TestOperationsDocCoversMetrics(t *testing.T) {
	raw, err := os.ReadFile("../../docs/OPERATIONS.md")
	if err != nil {
		t.Fatalf("reading docs/OPERATIONS.md: %v", err)
	}
	doc := string(raw)

	registered := make(map[string]bool)
	for _, name := range cutfit.MetricNames() {
		registered[name] = true
		if !strings.Contains(doc, "`"+name+"`") && !strings.Contains(doc, "`"+name+"{") {
			t.Errorf("docs/OPERATIONS.md catalog is missing the registered series %q", name)
		}
	}
	if len(registered) < 15 {
		t.Fatalf("registry exports %d families, want ≥ 15 — did a layer's series not register?", len(registered))
	}

	// Backward direction: any `cutfit_…` token the doc claims (with or
	// without a {label} suffix inside the backticks) must be real.
	re := regexp.MustCompile("`(cutfit_[a-z0-9_]+)")
	for _, m := range re.FindAllStringSubmatch(doc, -1) {
		if !registered[m[1]] {
			t.Errorf("docs/OPERATIONS.md names %q, which is not in the registry", m[1])
		}
	}
}

package sched

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// fakeScheduler is a registry stub; it never schedules anything.
type fakeScheduler struct{ name string }

func (f fakeScheduler) Name() string { return f.name }
func (f fakeScheduler) Schedule(ctx context.Context, p Problem, opts ...Option) (*Result, error) {
	return &Result{Algorithm: f.name}, nil
}

func fakeDescriptor(name string, aliases ...string) Descriptor {
	canonical := strings.ToLower(name)
	return Descriptor{
		Name:    name,
		Aliases: aliases,
		New:     func() Scheduler { return fakeScheduler{name: canonical} },
	}
}

func TestRegisterLookupAliasesCaseInsensitive(t *testing.T) {
	Register(fakeDescriptor("Test-Algo", "TA", "test-alias"))
	defer Unregister("test-algo")

	for _, name := range []string{"test-algo", "TEST-ALGO", " Test-Algo ", "ta", "TA", "test-alias"} {
		s, err := Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
		if s.Name() != "test-algo" {
			t.Fatalf("Lookup(%q).Name()=%q", name, s.Name())
		}
	}

	found := false
	for _, d := range List() {
		if d.Name == "test-algo" {
			found = true
			if len(d.Aliases) != 2 {
				t.Fatalf("aliases=%v", d.Aliases)
			}
		}
	}
	if !found {
		t.Fatal("test-algo not in List()")
	}

	Unregister("TEST-ALGO")
	if _, err := Lookup("ta"); err == nil {
		t.Fatal("alias should be gone after Unregister")
	}
}

func TestLookupUnknownAlgorithm(t *testing.T) {
	Register(fakeDescriptor("known-algo"))
	defer Unregister("known-algo")

	_, err := Lookup("definitely-not-registered")
	if err == nil {
		t.Fatal("expected error")
	}
	var unknown *UnknownAlgorithmError
	if !errors.As(err, &unknown) {
		t.Fatalf("err=%T, want *UnknownAlgorithmError", err)
	}
	if unknown.Name != "definitely-not-registered" {
		t.Fatalf("Name=%q", unknown.Name)
	}
	if !strings.Contains(err.Error(), "known-algo") {
		t.Fatalf("error should list known algorithms: %v", err)
	}
}

func TestRegisterPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("empty name", func() { Register(fakeDescriptor("")) })
	mustPanic("nil constructor", func() { Register(Descriptor{Name: "nil-new"}) })

	Register(fakeDescriptor("dup-algo", "dup-alias"))
	defer Unregister("dup-algo")
	mustPanic("duplicate name", func() { Register(fakeDescriptor("DUP-ALGO")) })
	mustPanic("duplicate alias", func() { Register(fakeDescriptor("other-algo", "dup-alias")) })
	// The failed registrations must not leave partial state behind.
	if _, err := Lookup("other-algo"); err == nil {
		t.Fatal("failed Register must not partially register")
	}
}

// TestRegistryConcurrency hammers Register/Lookup/List/Names/Unregister
// from many goroutines; run with -race (CI does) to verify the single
// locked implementation.
func TestRegistryConcurrency(t *testing.T) {
	const goroutines = 16
	const iters = 50
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("conc-algo-%d", i)
			for j := 0; j < iters; j++ {
				Register(fakeDescriptor(name))
				if s, err := Lookup(name); err != nil || s.Name() != name {
					t.Errorf("Lookup(%q)=%v,%v", name, s, err)
					return
				}
				List()
				Names()
				Lookup("conc-algo-0") // may or may not exist; must not race
				Unregister(name)
			}
		}(i)
	}
	wg.Wait()
	for i := 0; i < goroutines; i++ {
		Unregister(fmt.Sprintf("conc-algo-%d", i))
	}
}

func TestProblemValidate(t *testing.T) {
	if err := (Problem{}).Validate(); err == nil {
		t.Fatal("empty problem must not validate")
	}
	if _, err := NewProblem(nil, nil); err == nil {
		t.Fatal("NewProblem(nil, nil) must fail")
	}
}

func TestNewConfigDefaultsAndOptions(t *testing.T) {
	cfg := NewConfig()
	if !cfg.VIPFollow || !cfg.RoutePruning || !cfg.MigrationGuard || !cfg.HeterogeneityAdjust {
		t.Fatalf("defaults must be the published algorithms: %+v", cfg)
	}
	if cfg.Seed != 0 || cfg.FullRebuild || cfg.Insertion || cfg.MaxSweeps != 0 || cfg.GuardSlack != 0 {
		t.Fatalf("unexpected defaults: %+v", cfg)
	}

	cfg = NewConfig(
		WithSeed(7), WithFullRebuild(true), WithInsertion(true),
		WithMaxSweeps(2), WithGuardSlack(-1), WithVIPFollow(false),
		WithRoutePruning(false), WithMigrationGuard(false), WithHeterogeneityAdjust(false),
		nil,
	)
	want := Config{Seed: 7, FullRebuild: true, Insertion: true, MaxSweeps: 2, GuardSlack: -1}
	if cfg != want {
		t.Fatalf("cfg=%+v want %+v", cfg, want)
	}
}

func TestStats(t *testing.T) {
	s := Stats{"b": 2, "a": 1}
	if s.Get("a") != 1 || s.Get("missing") != 0 {
		t.Fatalf("Get: %+v", s)
	}
	keys := s.Keys()
	if len(keys) != 2 || keys[0] != "a" || keys[1] != "b" {
		t.Fatalf("Keys()=%v", keys)
	}
}

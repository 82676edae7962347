package dream

// Facade tests for the public scheme registry: RegisterScheme end-to-end
// through SimulateContext, SchemeID alias resolution, and roster listing.

import (
	"context"
	"strings"
	"testing"
)

// nopTracker is the smallest possible Mitigator: it never mitigates.
type nopTracker struct{}

func (nopTracker) Name() string                          { return "facade-test-nop" }
func (nopTracker) OnActivate(Tick, int, uint32) Decision { return Decision{} }
func (nopTracker) OnSampled(Tick, int, uint32)           {}
func (nopTracker) OnMitigations(Tick, []Mitigation)      {}
func (nopTracker) OnRefresh(Tick, uint64) []Op           { return nil }
func (nopTracker) StorageBits() int64                    { return 128 }

func TestRegisterSchemeEndToEnd(t *testing.T) {
	err := RegisterScheme("facade-test-nop", SchemeDescriptor{
		Build: func(env SchemeEnv, sub int) (Mitigator, error) { return nopTracker{}, nil },
		Security: SecurityModel{Kind: SecurityProbabilistic,
			Note: "test tracker; mitigates nothing"},
		Desc: "facade registry test tracker",
	})
	if err != nil {
		t.Fatalf("RegisterScheme: %v", err)
	}
	// The registered name is a first-class Config.Scheme: it validates and
	// simulates like a built-in.
	cfg := Config{Workload: "mcf", Scheme: "facade-test-nop", TRH: 2000,
		Cores: 2, AccessesPerCore: 2000, Seed: 5}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("registered scheme fails Config.Validate: %v", err)
	}
	res, err := SimulateContext(context.Background(), cfg)
	if err != nil {
		t.Fatalf("SimulateContext with registered scheme: %v", err)
	}
	// A tracker that never mitigates behaves as the unprotected baseline.
	base, err := SimulateContext(context.Background(), Config{Workload: "mcf",
		Scheme: Unprotected, TRH: 2000, Cores: 2, AccessesPerCore: 2000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.IPCSum() != base.IPCSum() {
		t.Errorf("nop tracker IPC %.6f differs from baseline %.6f", res.IPCSum(), base.IPCSum())
	}
	// And it appears in the public roster with its metadata intact.
	var found bool
	for _, m := range RegisteredSchemes() {
		if m.Name == "facade-test-nop" {
			found = true
			if m.Builtin {
				t.Error("user registration marked builtin")
			}
			if m.Sec.Kind != SecurityProbabilistic {
				t.Errorf("security kind = %s", m.Sec.Kind)
			}
		}
	}
	if !found {
		t.Error("registered scheme missing from RegisteredSchemes()")
	}
}

func TestRegisterSchemeRejects(t *testing.T) {
	d := SchemeDescriptor{Build: func(SchemeEnv, int) (Mitigator, error) { return nopTracker{}, nil }}
	if err := RegisterScheme("Bad Name", d); err == nil {
		t.Error("invalid name accepted")
	}
	if err := RegisterScheme("mint-dreamr", d); err == nil {
		t.Error("builtin shadowing accepted")
	}
	if err := RegisterScheme("facade-test-nobuild", SchemeDescriptor{}); err == nil ||
		!strings.Contains(err.Error(), "Build") {
		t.Errorf("nil-Build registration: err = %v, want a Build complaint", err)
	}
}

func TestAllSchemeIDsResolve(t *testing.T) {
	for _, id := range Schemes() {
		if _, err := schemeFor(id); err != nil {
			t.Errorf("SchemeID %q does not resolve: %v", id, err)
		}
		if err := (Config{Scheme: id}).Validate(); err != nil {
			t.Errorf("Config{Scheme: %q}.Validate() = %v", id, err)
		}
	}
	// The pre-registry alias spellings must keep resolving to the registered
	// names they have always denoted.
	for id, want := range map[SchemeID]string{
		DreamC: "dreamc-randomized", DreamCSetAssc: "dreamc-set-assoc", DreamC2x: "dreamc-randomized-2x",
	} {
		sc, err := schemeFor(id)
		if err != nil {
			t.Fatalf("alias %q: %v", id, err)
		}
		if sc.Name != want {
			t.Errorf("alias %q resolved to %q, want %q", id, sc.Name, want)
		}
	}
	if _, err := schemeFor("no-such-scheme"); err == nil {
		t.Error("unknown scheme resolved")
	}
}

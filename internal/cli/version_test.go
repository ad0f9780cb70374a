package cli

import (
	"flag"
	"strings"
	"testing"
)

// TestVersion pins the build string's shape: it always identifies the
// module and the toolchain, whatever build info the test binary carries.
func TestVersion(t *testing.T) {
	v := Version()
	if !strings.HasPrefix(v, "radcrit ") {
		t.Errorf("Version() = %q, want radcrit prefix", v)
	}
	if !strings.Contains(v, "go1") {
		t.Errorf("Version() = %q, want toolchain version", v)
	}
}

func TestVersionFlag(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	show := VersionFlag(fs)
	if err := fs.Parse([]string{"-version"}); err != nil {
		t.Fatal(err)
	}
	if !*show {
		t.Errorf("-version did not set the flag")
	}
}

// TestWithSuggestion pins the did-you-mean augmentation on registry
// unknown-name errors, and transparency for everything else.
func TestWithSuggestion(t *testing.T) {
	c := &CampaignFlags{Device: "k04", Kernel: "dgemm", Strikes: 10, Seed: 1, Scale: "test"}
	if _, err := c.ResolveDevice(); err == nil || !strings.Contains(err.Error(), `did you mean "k40"?`) {
		t.Errorf("ResolveDevice(k04) error = %v, want a k40 suggestion", err)
	}
	c = &CampaignFlags{Device: "k40", Kernel: "dgmem:128", Strikes: 10, Seed: 1, Scale: "test"}
	if _, err := c.ResolvePlan(); err == nil || !strings.Contains(err.Error(), `did you mean "dgemm"?`) {
		t.Errorf("ResolvePlan(dgmem) error = %v, want a dgemm suggestion", err)
	}
	// The plan path carries the suggestion too.
	c = &CampaignFlags{Device: "phii", Kernel: "dgemm", Strikes: 10, Seed: 1, Scale: "test"}
	if _, err := c.ResolvePlan(); err == nil || !strings.Contains(err.Error(), `did you mean "phi"?`) {
		t.Errorf("ResolvePlan error = %v, want a phi suggestion", err)
	}
	if WithSuggestion(nil) != nil {
		t.Errorf("WithSuggestion(nil) != nil")
	}
}

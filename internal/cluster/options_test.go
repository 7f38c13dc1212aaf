package cluster

import (
	"testing"
	"time"

	"bluedove/internal/core"
)

// TestValidateClamps table-tests the Options pre-flight: pathological knob
// values (negative or sub-millisecond intervals, negative sizes) must be
// normalized before they can reach a node constructor — PR 4's sub-2ns
// retry ticker showed these slip through otherwise.
func TestValidateClamps(t *testing.T) {
	space := core.UniformSpace(2, 100)
	cases := []struct {
		name  string
		in    Options
		check func(t *testing.T, o Options)
	}{
		{
			name: "sub-millisecond intervals raised to 1ms",
			in: Options{
				Space:           space,
				GossipInterval:  2 * time.Nanosecond,
				ReportInterval:  500 * time.Microsecond,
				RetryInterval:   time.Nanosecond,
				ElasticInterval: 999 * time.Microsecond,
			},
			check: func(t *testing.T, o Options) {
				for name, d := range map[string]time.Duration{
					"GossipInterval":  o.GossipInterval,
					"ReportInterval":  o.ReportInterval,
					"RetryInterval":   o.RetryInterval,
					"ElasticInterval": o.ElasticInterval,
				} {
					if d != time.Millisecond {
						t.Errorf("%s = %v, want 1ms", name, d)
					}
				}
			},
		},
		{
			name: "negative intervals fall back to unset",
			in: Options{
				Space:          space,
				FailAfter:      -time.Second,
				RecoveryDelay:  -1,
				PruneGrace:     -time.Hour,
				RerouteBackoff: -time.Second,
				MessageTTL:     -1,
			},
			check: func(t *testing.T, o Options) {
				for name, d := range map[string]time.Duration{
					"FailAfter":      o.FailAfter,
					"RecoveryDelay":  o.RecoveryDelay,
					"PruneGrace":     o.PruneGrace,
					"RerouteBackoff": o.RerouteBackoff,
					"MessageTTL":     o.MessageTTL,
				} {
					if d != 0 {
						t.Errorf("%s = %v, want 0 (unset)", name, d)
					}
				}
			},
		},
		{
			name: "negative sizes fall back to defaults",
			in: Options{
				Space:             space,
				MatcherQueueDepth: -1,
				EdgeBufferBytes:   -1,
				ResumeWindow:      -100,
				AdmissionLimit:    -5,
			},
			check: func(t *testing.T, o Options) {
				for name, n := range map[string]int{
					"MatcherQueueDepth": o.MatcherQueueDepth,
					"EdgeBufferBytes":   o.EdgeBufferBytes,
					"ResumeWindow":      o.ResumeWindow,
					"AdmissionLimit":    o.AdmissionLimit,
				} {
					if n != 0 {
						t.Errorf("%s = %d, want 0 (default)", name, n)
					}
				}
			},
		},
		{
			name: "negative disable sentinels preserved",
			in: Options{
				Space:            space,
				RetryBudget:      -1,
				BreakerThreshold: -1,
			},
			check: func(t *testing.T, o Options) {
				if o.RetryBudget != -1 || o.BreakerThreshold != -1 {
					t.Errorf("RetryBudget=%d BreakerThreshold=%d, want -1/-1 (disable sentinel)",
						o.RetryBudget, o.BreakerThreshold)
				}
			},
		},
		{
			name: "sane values untouched",
			in: Options{
				Space:          space,
				GossipInterval: 50 * time.Millisecond,
				AdmissionLimit: 128,
			},
			check: func(t *testing.T, o Options) {
				if o.GossipInterval != 50*time.Millisecond || o.AdmissionLimit != 128 {
					t.Errorf("sane values mutated: %+v", o)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := tc.in
			if err := o.Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
			tc.check(t, o)
		})
	}
}

// TestValidateRequiresSpace: the one hard rejection.
func TestValidateRequiresSpace(t *testing.T) {
	var o Options
	if err := o.Validate(); err == nil {
		t.Fatal("Validate accepted a nil Space")
	}
}

package service

import (
	"time"

	"repro/internal/core"
	"repro/internal/schema"
)

// RequestOptions are a request's budgets: the whole-request budget and
// the per-goal budgets of core.Options. Everything else the daemon
// solves with is fixed: core.DefaultOptions() (unfolded, every kill
// goal on the request's goroutine) under the server's domain ceiling. Every field is
// clamped server-side onto the Config ceilings before reaching the
// generator: a zero (absent) field selects the ceiling itself, a
// positive field is honored up to the ceiling, and a negative field is
// passed through so core.Options.Validate rejects it with ErrBadOptions
// (422) — the daemon never silently "fixes" a nonsensical request.
type RequestOptions struct {
	// TimeoutMS bounds the whole request (parse + generate + analyze)
	// in milliseconds. Clamped onto Config.MaxTimeout.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// GoalTimeoutMS bounds each kill goal; clamped onto
	// Config.MaxGoalTimeout.
	GoalTimeoutMS int64 `json:"goal_timeout_ms,omitempty"`
	// GoalNodeLimit bounds each kill goal's solver nodes (with the
	// escalating-retry ladder); clamped onto Config.MaxGoalNodes.
	GoalNodeLimit int64 `json:"goal_node_limit,omitempty"`
}

// GenerateRequest is the POST /v1/generate body.
type GenerateRequest struct {
	DDL     string         `json:"ddl"`
	Query   string         `json:"query"`
	Options RequestOptions `json:"options"`
}

// AnalyzeRequest is the POST /v1/analyze body: generation inputs plus
// mutation-space switches.
type AnalyzeRequest struct {
	GenerateRequest
	// IncludeFullOuter includes mutations to FULL OUTER JOIN (the
	// paper's Table I excludes them).
	IncludeFullOuter bool `json:"include_full_outer,omitempty"`
	// NoAllJoinOrders restricts join-type mutants to the written join
	// tree instead of every equivalent order.
	NoAllJoinOrders bool `json:"no_all_join_orders,omitempty"`
}

// clampBudget applies the server-side ceiling: absent (0) selects the
// ceiling, anything above it is pulled down, negatives pass through
// for Validate to reject.
func clampBudget(client, ceiling time.Duration) time.Duration {
	if client == 0 || client > ceiling {
		return ceiling
	}
	return client
}

func clampNodes(client, ceiling int64) int64 {
	if client == 0 || client > ceiling {
		return ceiling
	}
	return client
}

// clamp converts the wire options into (whole-request budget,
// core.Options) under the server's ceilings. The resource-governance
// domain ceiling always comes from the server config — it is not
// client-tunable.
func (s *Server) clamp(ro RequestOptions) (time.Duration, core.Options) {
	budget := clampBudget(time.Duration(ro.TimeoutMS)*time.Millisecond, s.cfg.MaxTimeout)
	opts := core.DefaultOptions()
	opts.GoalTimeout = clampBudget(time.Duration(ro.GoalTimeoutMS)*time.Millisecond, s.cfg.MaxGoalTimeout)
	opts.GoalNodeLimit = clampNodes(ro.GoalNodeLimit, s.cfg.MaxGoalNodes)
	opts.MaxDomainSize = s.cfg.Limits.MaxDomainSize
	return budget, opts
}

// DatasetJSON carries one generated dataset over the wire: its purpose
// label plus the canonical INSERT script (schema.Dataset.SQLInserts),
// the same bytes the CLI writes — which is what makes the chaos soak's
// byte-identical comparison against the library path meaningful.
type DatasetJSON struct {
	Purpose string `json:"purpose"`
	Inserts string `json:"inserts"`
}

// SkipJSON is a dataset skipped as unsatisfiable (mutant group
// equivalent to the original query).
type SkipJSON struct {
	Purpose string `json:"purpose"`
	Reason  string `json:"reason"`
}

// FailureJSON is one abandoned kill goal from Suite.Incomplete.
type FailureJSON struct {
	Purpose   string `json:"purpose"`
	Reason    string `json:"reason"`
	Attempts  int    `json:"attempts"`
	Nodes     int64  `json:"nodes"`
	ElapsedMS int64  `json:"elapsed_ms"`
	Error     string `json:"error,omitempty"`
}

// GenerateResponse is the POST /v1/generate body on 200 (complete) and
// 207 (partial: Incomplete non-empty, Complete false).
type GenerateResponse struct {
	Complete   bool          `json:"complete"`
	Original   *DatasetJSON  `json:"original,omitempty"`
	Datasets   []DatasetJSON `json:"datasets"`
	Skipped    []SkipJSON    `json:"skipped,omitempty"`
	Incomplete []FailureJSON `json:"incomplete,omitempty"`
	Stats      core.Stats    `json:"stats"`
	// ServedBy names the fleet node that solved (or cached) this
	// response — the key's ring owner on the happy path. Empty when
	// the daemon runs standalone, so single-node bodies are unchanged.
	ServedBy string `json:"served_by,omitempty"`
	// ServedFrom is "disk" when the response was served from the
	// durable cache tier (a crash-recovered or restart-surviving
	// entry). Empty for memory-tier hits and fresh solves, so warm
	// in-memory serves stay byte-identical to the library path.
	ServedFrom string `json:"served_from,omitempty"`
	// Degraded marks a fleet response that was solved locally because
	// the key's owning node was unreachable (breaker open, retries
	// exhausted): correct bytes, reduced cache affinity.
	Degraded bool `json:"degraded,omitempty"`
}

// KindKillsJSON is one mutation class's kill line.
type KindKillsJSON struct {
	Kind   string `json:"kind"`
	Killed int    `json:"killed"`
	Total  int    `json:"total"`
}

// AnalyzeResponse is the POST /v1/analyze body: the generated suite
// plus the kill-matrix summary.
type AnalyzeResponse struct {
	GenerateResponse
	Mutants   int             `json:"mutants"`
	Killed    int             `json:"killed"`
	Survivors []string        `json:"survivors,omitempty"`
	ByKind    []KindKillsJSON `json:"by_kind,omitempty"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	// Kind classifies the failure: "malformed", "parse",
	// "unsupported" (well-formed SQL outside the supported query
	// class), "resource-limit", "bad-options", "shed", "draining",
	// "internal".
	Kind  string `json:"kind"`
	Error string `json:"error"`
}

// encodeSuite converts a core.Suite into wire form. sch renders the
// INSERT scripts.
func encodeSuite(suite *core.Suite, sch *schema.Schema) GenerateResponse {
	resp := GenerateResponse{
		Complete: len(suite.Incomplete) == 0,
		Datasets: make([]DatasetJSON, 0, len(suite.Datasets)),
		Stats:    suite.Stats,
	}
	if suite.Original != nil {
		resp.Original = &DatasetJSON{Purpose: suite.Original.Purpose, Inserts: suite.Original.SQLInserts(sch)}
	}
	for _, ds := range suite.Datasets {
		resp.Datasets = append(resp.Datasets, DatasetJSON{Purpose: ds.Purpose, Inserts: ds.SQLInserts(sch)})
	}
	for _, sk := range suite.Skipped {
		resp.Skipped = append(resp.Skipped, SkipJSON{Purpose: sk.Purpose, Reason: sk.Reason})
	}
	for _, f := range suite.Incomplete {
		fj := FailureJSON{
			Purpose:   f.Purpose,
			Reason:    f.Reason,
			Attempts:  f.Attempts,
			Nodes:     f.Nodes,
			ElapsedMS: f.Elapsed.Milliseconds(),
		}
		if f.Err != nil {
			fj.Error = f.Err.Error()
		}
		resp.Incomplete = append(resp.Incomplete, fj)
	}
	return resp
}

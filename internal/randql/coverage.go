package randql

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/qtree"
)

// Coverage counts which grammar rules of the extended query class a soak
// actually exercised. The random grammar is probabilistic, so a knob can
// be enabled yet silently starved — by a bad interaction of
// probabilities, by the builder rejecting every instance of a rule, or
// by a regression that stops emitting a form altogether. The soak
// tests feed every accepted case through Observe and fail when a rule
// that their Config enables was never seen, turning "the soak passed"
// into "the soak passed AND it tested what we think it tests".
type Coverage struct {
	counts map[string]int
}

// Grammar-rule names tracked by Coverage. Kept as constants so the
// tests and Missing agree on spelling.
const (
	RuleSubIn        = "sub_in"
	RuleSubNotIn     = "sub_not_in"
	RuleSubExists    = "sub_exists"
	RuleSubNotExists = "sub_not_exists"
	RuleHaving       = "having"
	RuleLike         = "like"
	RuleNotLike      = "not_like"
)

// NewCoverage returns an empty counter.
func NewCoverage() *Coverage {
	return &Coverage{counts: map[string]int{}}
}

// Observe records the grammar rules present in one accepted case. The
// normalized tree is authoritative for the retained forms (NOT IN /
// NOT EXISTS connectives, HAVING, LIKE); the positive IN / EXISTS
// connectives decorrelate into joins during normalization (§V-H), so
// they are only visible in the original SQL text and are counted there.
func (c *Coverage) Observe(q *qtree.Query, sql string) {
	for _, s := range q.Subs {
		switch s.Kind {
		case qtree.SubNotIn:
			c.counts[RuleSubNotIn]++
		case qtree.SubNotExists:
			c.counts[RuleSubNotExists]++
		}
	}
	up := strings.ToUpper(sql)
	if n := strings.Count(up, " IN (SELECT") - strings.Count(up, " NOT IN (SELECT"); n > 0 {
		c.counts[RuleSubIn] += n
	}
	if n := strings.Count(up, "EXISTS (SELECT") - strings.Count(up, "NOT EXISTS (SELECT"); n > 0 {
		c.counts[RuleSubExists] += n
	}
	if q.Agg != nil && len(q.Agg.Having) > 0 {
		c.counts[RuleHaving]++
	}
	preds := q.Preds
	for _, s := range q.Subs {
		preds = append(preds[:len(preds):len(preds)], s.Preds...)
	}
	for _, p := range preds {
		if p.Like == nil {
			continue
		}
		if p.Like.Not {
			c.counts[RuleNotLike]++
		} else {
			c.counts[RuleLike]++
		}
	}
}

// Missing returns the rules cfg enables that were never observed,
// sorted. An empty result means the soak exercised every enabled rule
// at least once.
func (c *Coverage) Missing(cfg Config) []string {
	var want []string
	if cfg.SubqProb > 0 {
		want = append(want, RuleSubIn, RuleSubNotIn, RuleSubExists, RuleSubNotExists)
	}
	if cfg.HavingProb > 0 && cfg.AllowAgg && cfg.AggProb > 0 {
		want = append(want, RuleHaving)
	}
	if cfg.LikeProb > 0 {
		want = append(want, RuleLike, RuleNotLike)
	}
	var missing []string
	for _, r := range want {
		if c.counts[r] == 0 {
			missing = append(missing, r)
		}
	}
	sort.Strings(missing)
	return missing
}

// String renders the observed counts, sorted by rule name.
func (c *Coverage) String() string {
	rules := make([]string, 0, len(c.counts))
	for r := range c.counts {
		rules = append(rules, r)
	}
	sort.Strings(rules)
	parts := make([]string, len(rules))
	for i, r := range rules {
		parts[i] = fmt.Sprintf("%s=%d", r, c.counts[r])
	}
	return strings.Join(parts, " ")
}

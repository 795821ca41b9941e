// Knob parsing and canonical serialization. The "-p key=value" CLI
// syntax, the sim service's JSON knob maps and the sweep files of
// enzobatch all funnel into the same Extra map; CanonicalOpts renders a
// resolved Opts as a single deterministic string so that physically
// identical requests hash identically (the sim scheduler's dedupe/cache
// key) no matter which front end produced them.
package problems

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// ParseKnob parses one "key=value" problem knob as accepted by the
// enzogo -p flag. Keys must be non-empty and free of the characters the
// canonical serialization uses as structure ('=', ';', '{', '}', spaces
// and other control/whitespace); values must be finite floats — NaN and
// infinities are rejected because they cannot round-trip through a
// canonical form (NaN != NaN) and are never meaningful physics knobs.
func ParseKnob(s string) (key string, val float64, err error) {
	key, raw, ok := strings.Cut(s, "=")
	if !ok {
		return "", 0, fmt.Errorf("problems: knob %q: want key=value", s)
	}
	if err := validKnobKey(key); err != nil {
		return "", 0, err
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		return "", 0, fmt.Errorf("problems: knob %q: %v", s, err)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return "", 0, fmt.Errorf("problems: knob %q: value must be finite", s)
	}
	return key, v, nil
}

func validKnobKey(key string) error {
	if key == "" {
		return fmt.Errorf("problems: empty knob key")
	}
	for _, r := range key {
		if r <= ' ' || r == '=' || r == ';' || r == '{' || r == '}' || r == 0x7f {
			return fmt.Errorf("problems: knob key %q contains reserved character %q", key, r)
		}
	}
	return nil
}

// CanonicalKnobs renders an Extra map in its canonical form:
// "{k1=v1;k2=v2}" with keys sorted and values formatted to round-trip
// exactly (strconv 'g', shortest). An empty or nil map renders as "{}".
func CanonicalKnobs(extra map[string]float64) string {
	keys := make([]string, 0, len(extra))
	for k := range extra {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	sb.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			sb.WriteByte(';')
		}
		sb.WriteString(k)
		sb.WriteByte('=')
		sb.WriteString(strconv.FormatFloat(extra[k], 'g', -1, 64))
	}
	sb.WriteByte('}')
	return sb.String()
}

// ParseCanonicalKnobs inverts CanonicalKnobs. It accepts exactly the
// canonical form: "{}" or "{k=v;...}" with valid keys and finite values.
func ParseCanonicalKnobs(s string) (map[string]float64, error) {
	if len(s) < 2 || s[0] != '{' || s[len(s)-1] != '}' {
		return nil, fmt.Errorf("problems: canonical knobs %q: want {k=v;...}", s)
	}
	body := s[1 : len(s)-1]
	out := map[string]float64{}
	if body == "" {
		return out, nil
	}
	for _, pair := range strings.Split(body, ";") {
		k, v, err := ParseKnob(pair)
		if err != nil {
			return nil, err
		}
		if _, dup := out[k]; dup {
			return nil, fmt.Errorf("problems: canonical knobs %q: duplicate key %q", s, k)
		}
		out[k] = v
	}
	return out, nil
}

// Canonical renders a fully resolved Opts as a deterministic string: the
// identity of a run's configuration for hashing and caching. Every physics
// field participates; Workers does not — every kernel, the CIC deposit
// included, gives the same bits at any worker count, so the budget is a
// resource choice, not part of what is computed.
func (o Opts) Canonical() string {
	return fmt.Sprintf("rootn=%d;maxlevel=%d;chem=%t;seed=%d;solver=%s;knobs=%s",
		o.RootN, o.MaxLevel, o.Chemistry, o.Seed, o.Solver, CanonicalKnobs(o.Extra))
}

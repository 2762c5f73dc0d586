// Package sweep implements a sharded experiment-sweep engine over a
// dependency-aware job DAG, backed by a content-addressed, persistent
// on-disk result cache and artifact store. A sweep is a set of Jobs,
// each naming one (benchmark, policy, context scheme, parameters)
// simulation under one core.Config. Policies are registered values that
// declare typed prerequisites — other jobs, and trained profiles stored
// as artifacts — and the engine resolves every node through an
// in-process memo, the persistent caches, and finally execution, exactly
// once per key. Jobs are keyed by a deterministic hash of their full
// specification, so identical work is never simulated twice: results are
// memoized in process, persisted as JSON cache entries, and survive
// across runs and across processes. A sweep can be partitioned into
// shards for multi-process fan-out — each job placed by its dependency
// chain's anchor key, so the shard that owns an expensive training also
// owns everything built from it — and later merged back from the shared
// cache into one deterministic result set.
package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/arch"
	"repro/internal/calltree"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Job is one unit of sweep work. The zero value of each optional field
// means "use the engine configuration's value", which keeps keys stable
// for the common case.
type Job struct {
	// Bench is the benchmark name (workload.Names()).
	Bench string `json:"bench"`
	// Policy selects the comparator; see the Policy constants.
	Policy string `json:"policy"`
	// Scheme is the calling-context scheme name for PolicyScheme.
	Scheme string `json:"scheme,omitempty"`
	// Delta overrides the slowdown-threshold delta (percent) for the
	// offline and scheme policies; 0 uses Config.DeltaPct.
	Delta float64 `json:"delta,omitempty"`
	// Aggressiveness overrides the on-line controller aggressiveness;
	// 0 uses Config.Online.Aggressiveness.
	Aggressiveness float64 `json:"aggressiveness,omitempty"`
	// MHz overrides the single-clock frequency; 0 uses Config.Sim.BaseMHz.
	MHz int `json:"mhz,omitempty"`
}

// String renders a compact human-readable job label.
func (j Job) String() string {
	s := j.Bench + "/" + j.Policy
	if j.Scheme != "" {
		s += "/" + j.Scheme
	}
	if j.Delta != 0 {
		s += fmt.Sprintf("/delta=%g", j.Delta)
	}
	if j.Aggressiveness != 0 {
		s += fmt.Sprintf("/aggr=%g", j.Aggressiveness)
	}
	if j.MHz != 0 {
		s += fmt.Sprintf("/mhz=%d", j.MHz)
	}
	return s
}

// Validate checks that the job names a known benchmark and registered
// policy, passes the policy's own parameter validation, and that its
// generic parameters are in range — out-of-range values would otherwise
// produce garbage results that the cache then serves forever under a
// perfectly valid key.
func (j Job) Validate() error {
	if !workload.Known(j.Bench) {
		return fmt.Errorf("sweep: unknown benchmark %q", j.Bench)
	}
	p, ok := PolicyByName(j.Policy)
	if !ok {
		return fmt.Errorf("sweep: unknown policy %q (registered: %s)", j.Policy, strings.Join(Policies(), ", "))
	}
	if err := p.ValidateJob(j); err != nil {
		return err
	}
	if j.Delta < 0 || math.IsNaN(j.Delta) || math.IsInf(j.Delta, 0) {
		return fmt.Errorf("sweep: %s: delta %v out of range", j, j.Delta)
	}
	if j.Aggressiveness < 0 || math.IsNaN(j.Aggressiveness) || math.IsInf(j.Aggressiveness, 0) {
		return fmt.Errorf("sweep: %s: aggressiveness %v out of range", j, j.Aggressiveness)
	}
	if j.MHz < 0 {
		return fmt.Errorf("sweep: %s: mhz %d out of range", j, j.MHz)
	}
	return nil
}

// canonical delegates to the job's policy: parameter values the policy
// treats as defaults map onto the zero value, and parameters it ignores
// are cleared, so semantically identical jobs share one cache key (e.g.
// an explicit delta equal to cfg.DeltaPct keys the same as no delta at
// all). Unknown policies pass through unchanged (Key is only meaningful
// for validated jobs).
func (j Job) canonical(cfg core.Config) Job {
	p, ok := PolicyByName(j.Policy)
	if !ok {
		return j
	}
	return p.CanonicalJob(j, cfg)
}

// SchemeByName resolves one of the paper's six context schemes.
func SchemeByName(name string) (calltree.Scheme, bool) {
	return calltree.SchemeByName(name)
}

// Outcome is the cacheable result of one job: the simulation result plus
// the policy-specific byproducts the report generators need.
type Outcome struct {
	Res sim.Result `json:"result"`
	// Stats holds the run-time instrumentation activity of edited runs
	// (PolicyScheme); zero otherwise.
	Stats core.EditStats `json:"edit_stats"`
	// GlobalMHz is the matched frequency chosen by PolicyGlobal.
	GlobalMHz int `json:"global_mhz,omitempty"`
	// StaticReconfig and StaticInstr count the edit plan's static
	// reconfiguration and path-tracking points (PolicyScheme).
	StaticReconfig int `json:"static_reconfig,omitempty"`
	StaticInstr    int `json:"static_instr,omitempty"`
}

// keySchema versions the key derivation; bump it when the hashed
// payload's meaning changes so stale cache entries cannot be mistaken
// for current ones. It is independent of artifact.SchemaVersion: the
// artifact schema can move without invalidating result keys.
const keySchema = 1

// Key returns the content-addressed cache key of a job under a
// configuration: a hex SHA-256 of the canonical JSON encoding of
// (schema, config, job). encoding/json serializes struct fields in
// declaration order, so the encoding — and therefore the key — is
// deterministic across runs and processes of the same build. The
// configuration's topology name is canonicalized first: the default
// topology is hashed as absent, so pre-topology cache entries keep
// their keys, while non-default topologies hash into the key space.
func Key(cfg core.Config, job Job) string {
	cfg.Sim.Topology = arch.CanonicalTopologyName(cfg.Sim.Topology)
	payload := struct {
		Schema int         `json:"schema"`
		Config core.Config `json:"config"`
		Job    Job         `json:"job"`
	}{keySchema, cfg, job.canonical(cfg)}
	b, err := json.Marshal(payload)
	if err != nil {
		// core.Config and Job are plain data; this cannot fail.
		panic("sweep: key encoding: " + err.Error())
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// shardOf maps a key to a shard index in [0, shards).
func shardOf(key string, shards int) int {
	v, err := strconv.ParseUint(key[:16], 16, 64)
	if err != nil {
		panic("sweep: malformed key " + key)
	}
	return int(v % uint64(shards))
}

// shardKey returns the key a job is shard-assigned by: its policy's
// shard anchor, followed transitively. A job with no anchor places by
// its own key; a job anchored to a trained profile places by that
// profile's artifact key — so every job that resolves (or feeds) one
// training lands on the shard that owns it, and a cold fleet executes
// each training, and each shared dependency run, exactly once.
func shardKey(cfg core.Config, j Job) string {
	// The anchor chain is at most (job -> dependency job -> artifact);
	// the depth bound guards against a misregistered policy cycle.
	for depth := 0; depth < 8; depth++ {
		p, ok := PolicyByName(j.Policy)
		if !ok {
			break
		}
		d := p.ShardAnchor(cfg, j)
		if d == nil {
			break
		}
		if d.Profile != nil {
			return d.Profile.ArtifactKey(cfg)
		}
		j = *d.Job
	}
	return Key(cfg, j)
}

// AnchorKey returns the key a job is placement-assigned by — its
// policy's shard anchor followed transitively (job → dependency job →
// trained profile's artifact key), or the job's own key when it has no
// anchor. It is the grouping unit shared by static sharding (Shard) and
// fleet lease assignment: all jobs with equal anchor keys resolve (or
// feed) the same training, so a scheduler that never splits an anchor
// group trains each profile exactly once.
func AnchorKey(cfg core.Config, j Job) string { return shardKey(cfg, j) }

// Shard returns the subset of jobs owned by shard index out of shards
// total, assigned by stable anchor-key hash: every job belongs to
// exactly one shard, and the assignment depends only on (config, job),
// never on slice order. shards <= 1 returns jobs unchanged.
func Shard(cfg core.Config, jobs []Job, shards, index int) []Job {
	if shards <= 1 {
		return jobs
	}
	var out []Job
	for _, j := range jobs {
		if shardOf(shardKey(cfg, j), shards) == index {
			out = append(out, j)
		}
	}
	return out
}

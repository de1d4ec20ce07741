#include "compile/search/search.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <optional>
#include <set>
#include <unordered_map>
#include <utility>

#include "common/error.hpp"
#include "common/math.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "compile/search/cost_oracle.hpp"
#include "core/mapper.hpp"
#include "noc/route.hpp"

namespace resparc::compile::search {

using core::LayerMapping;
using core::Mapping;
using core::ResparcConfig;
using snn::LayerKind;

namespace {

// ------------------------------------------------------------------ genome --

/// Per-layer tile policy a gene can select.  kShared and kPackedPool are
/// the greedy-pack tilings; genes carrying a policy their layer kind (or
/// size) cannot honour are normalised to kPaper before decoding, so two
/// genomes that decode identically compare equal.
enum Policy : std::uint8_t {
  kPaper = 0,       ///< section 3.1 tiling under the gene's size
  kShared = 1,      ///< shared-window conv tiling (conv, fan_in <= size)
  kPackedPool = 2,  ///< cross-band pool packing (avgpool only)
};

/// One layer's mapping decision.
struct Gene {
  std::uint8_t size_index = 0;  ///< into the sanitised SearchOptions::sizes
  std::uint8_t policy = kPaper;
  bool align = false;  ///< push the layer to a fresh NeuroCell when it fits

  friend bool operator==(const Gene& a, const Gene& b) {
    return a.size_index == b.size_index && a.policy == b.policy &&
           a.align == b.align;
  }
  friend bool operator<(const Gene& a, const Gene& b) {
    if (a.size_index != b.size_index) return a.size_index < b.size_index;
    if (a.policy != b.policy) return a.policy < b.policy;
    return a.align < b.align;
  }
};

/// One candidate mapping: a gene per layer.
using Genome = std::vector<Gene>;

/// A decoded candidate: the full mapping plus the per-layer memoisation
/// keys the analytic oracle caches tile terms under.
struct Decoded {
  Mapping mapping;
  std::vector<std::uint64_t> keys;
};

// ----------------------------------------------------------------- decoder --

/// Genome -> Mapping.  Tiling is memoised per (layer, size, policy) —
/// a pure function, so concurrent decodes under the cache mutex stay
/// deterministic — and placement enforces the NeuroCell single-size rule
/// (RV-CAP-NC-MIXED-SIZE) by bumping to a fresh cell whenever the
/// resolved array size changes mid-cell.
class Decoder {
 public:
  Decoder(const snn::Topology& topology, const ResparcConfig& config,
          std::vector<std::size_t> sizes)
      : topology_(topology), config_(config), sizes_(std::move(sizes)) {}

  const std::vector<std::size_t>& sizes() const { return sizes_; }

  std::uint8_t default_size_index() const {
    for (std::size_t i = 0; i < sizes_.size(); ++i)
      if (sizes_[i] == config_.mca_size) return static_cast<std::uint8_t>(i);
    return 0;  // unreachable: sanitisation inserts config_.mca_size
  }

  /// Policies layer `l` can honour at array size `size` (kPaper always).
  std::vector<std::uint8_t> applicable_policies(std::size_t l,
                                                std::size_t size) const {
    const snn::LayerInfo& li = topology_.layers()[l];
    std::vector<std::uint8_t> out{kPaper};
    if (li.spec.kind == LayerKind::kConv && li.fan_in <= size)
      out.push_back(kShared);
    if (li.spec.kind == LayerKind::kAvgPool) out.push_back(kPackedPool);
    return out;
  }

  std::uint8_t normalize_policy(std::size_t l, std::size_t size,
                                std::uint8_t policy) const {
    const snn::LayerInfo& li = topology_.layers()[l];
    if (policy == kShared &&
        !(li.spec.kind == LayerKind::kConv && li.fan_in <= size))
      return kPaper;
    if (policy == kPackedPool && li.spec.kind != LayerKind::kAvgPool)
      return kPaper;
    return policy;
  }

  /// Canonical form: inapplicable policies fall back to kPaper, so genome
  /// equality matches decode equality.
  void normalize(Genome& g) const {
    for (std::size_t l = 0; l < g.size(); ++l)
      g[l].policy = normalize_policy(l, sizes_[g[l].size_index], g[l].policy);
  }

  Decoded decode(const Genome& g) const {
    require(g.size() == topology_.layer_count(),
            "search: genome does not match topology");
    Decoded d;
    d.mapping.config = config_;
    d.keys.reserve(g.size());
    for (std::size_t l = 0; l < g.size(); ++l) {
      const std::size_t size = sizes_[g[l].size_index];
      const std::uint8_t policy = normalize_policy(l, size, g[l].policy);
      const std::uint64_t key = layer_key(l, size, policy);
      d.keys.push_back(key);
      d.mapping.layers.push_back(tile_layer(l, size, policy, key));
    }
    place_genome(d.mapping, g);
    return d;
  }

 private:
  /// Memoisation key: unique per (layer, size, normalised policy).  Sizes
  /// are <= 1024 and policies < 16, so the packing cannot collide.
  static std::uint64_t layer_key(std::size_t l, std::size_t size,
                                 std::uint8_t policy) {
    return (static_cast<std::uint64_t>(l) << 20) |
           (static_cast<std::uint64_t>(size) << 4) | policy;
  }

  LayerMapping tile_layer(std::size_t l, std::size_t size,
                          std::uint8_t policy, std::uint64_t key) const {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      auto it = tile_cache_.find(key);
      if (it != tile_cache_.end()) return it->second;
    }
    ResparcConfig tcfg = config_;
    tcfg.mca_size = size;
    if (policy == kShared) tcfg.enhanced_input_sharing = true;
    const snn::LayerInfo& li = topology_.layers()[l];
    LayerMapping lm = policy == kPackedPool
                          ? tile_pool_packed(li, l, tcfg)
                          : core::tile_layer_paper(li, l, tcfg);
    // 0 means "inherit the chip default": the homogeneous gene stays
    // byte-compatible with pre-search program blobs.
    lm.mca_size = size == config_.mca_size ? 0 : size;
    std::lock_guard<std::mutex> lock(mutex_);
    tile_cache_.emplace(key, lm);
    return lm;
  }

  /// Sequential placement with two NeuroCell rules: a size change bumps
  /// to a fresh cell (an mPE's peripheral pitch fits one array size —
  /// the verifier's RV-CAP-NC-MIXED-SIZE invariant), and an align-bit
  /// layer that would straddle a cell but fits inside one also bumps
  /// (NeuroCell alignment, a per-layer search move).
  void place_genome(Mapping& m, const Genome& g) const {
    const std::size_t per_nc = config_.mpes_per_neurocell();
    std::size_t next_mpe = 0;
    std::size_t prev_size = 0;
    std::size_t synapses = 0;
    std::size_t cells = 0;
    m.total_mcas = 0;
    for (std::size_t l = 0; l < m.layers.size(); ++l) {
      LayerMapping& lm = m.layers[l];
      const std::size_t n = m.layer_mca_size(l);
      if (prev_size != 0 && n != prev_size && next_mpe % per_nc != 0)
        next_mpe = (next_mpe / per_nc + 1) * per_nc;
      const std::size_t nc_end = (next_mpe / per_nc + 1) * per_nc;
      if (g[l].align && next_mpe + lm.mpe_count > nc_end &&
          lm.mpe_count <= per_nc)
        next_mpe = nc_end;
      lm.first_mpe = next_mpe;
      next_mpe += lm.mpe_count;
      lm.first_nc = lm.first_mpe / per_nc;
      lm.last_nc = (lm.first_mpe + lm.mpe_count - 1) / per_nc;
      m.total_mcas += lm.mca_count;
      synapses += lm.synapses;
      cells += lm.mca_count * n * n;
      prev_size = n;
    }
    m.total_mpes = next_mpe;
    m.total_neurocells = ceil_div(next_mpe, per_nc);
    m.utilization =
        static_cast<double>(synapses) / static_cast<double>(cells);
  }

  const snn::Topology& topology_;
  const ResparcConfig& config_;
  std::vector<std::size_t> sizes_;
  mutable std::mutex mutex_;
  mutable std::unordered_map<std::uint64_t, LayerMapping> tile_cache_;
};

// ----------------------------------------------------------------- context --

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Shared state of one search run: the decoder and both oracles over one
/// (topology, config) pair.
class SearchContext {
 public:
  SearchContext(const snn::Topology& topology, const ResparcConfig& config,
                const SearchOptions& opt)
      : decoder_(topology, config, opt.sizes),
        analytic_(topology, config, opt.activity),
        trace_(make_calibration_trace(topology, opt.calibration_steps,
                                      opt.activity,
                                      stream_seed(opt.seed, 1))),
        replay_(topology, trace_) {}

  const Decoder& decoder() const { return decoder_; }

  /// Fast exploration score; infinite when the genome cannot be decoded
  /// into a legal mapping (the search simply routes around it).
  double analytic_score(const Genome& g) const {
    return score_with(analytic_, g);
  }

  /// Event-driven promotion score over the calibration trace.
  double replay_score(const Genome& g) const { return score_with(replay_, g); }

 private:
  double score_with(const CostOracle& oracle, const Genome& g) const {
    try {
      const Decoded d = decoder_.decode(g);
      const noc::RouteTable routes = noc::compute_routes(d.mapping);
      return oracle.score(d.mapping, routes, d.keys);
    } catch (const std::exception&) {
      return kInf;
    }
  }

  Decoder decoder_;
  AnalyticOracle analytic_;
  snn::SpikeTrace trace_;
  ReplayOracle replay_;
};

/// A scored genome.
struct Candidate {
  Genome genome;
  double score = kInf;
};

/// Homogeneous paper-tiling genome: decodes to the "paper" strategy's
/// mapping, so the search can only improve on the baseline.
Genome paper_genome(const Decoder& dec, std::size_t layers) {
  return Genome(layers, Gene{dec.default_size_index(), kPaper, false});
}

/// Greedy-pack-flavoured genome at the default size: shared conv windows
/// and packed pools wherever applicable.
Genome greedy_genome(const Decoder& dec, std::size_t layers) {
  Genome g = paper_genome(dec, layers);
  const std::size_t size = dec.sizes()[dec.default_size_index()];
  for (std::size_t l = 0; l < layers; ++l) {
    const auto policies = dec.applicable_policies(l, size);
    // Prefer the non-paper policy when the layer admits one.
    g[l].policy = policies.back();
  }
  dec.normalize(g);
  return g;
}

/// Keeps `elites` as the best `cap` unique finite-score candidates, in
/// ascending score order.  Sequential by construction — call sites feed
/// candidates in deterministic index order.
void update_elites(std::vector<Candidate>& elites, const Candidate& c,
                   std::size_t cap) {
  if (!std::isfinite(c.score)) return;
  for (const Candidate& e : elites)
    if (e.genome == c.genome) return;
  elites.push_back(c);
  std::stable_sort(
      elites.begin(), elites.end(),
      [](const Candidate& a, const Candidate& b) { return a.score < b.score; });
  if (elites.size() > cap) elites.resize(cap);
}

/// Appends `c` to the promotion pool unless its genome is already there.
/// Unlike update_elites this never evicts: baseline genomes must survive
/// promotion even when the analytic oracle ranks them last.
void add_to_pool(std::vector<Candidate>& pool, const Candidate& c) {
  for (const Candidate& e : pool)
    if (e.genome == c.genome) return;
  pool.push_back(c);
}

/// Replay-promotes the elite set: re-scores every candidate under the
/// event-driven oracle in parallel, then picks the argmin sequentially
/// (lowest index wins ties).  Falls back to `fallback` when every replay
/// fails, so the search always returns a decodable genome.
Genome promote(const SearchContext& ctx, const std::vector<Candidate>& elites,
               const Genome& fallback, std::size_t threads) {
  if (elites.empty()) return fallback;
  std::vector<double> scores(elites.size(), kInf);
  parallel_for(elites.size(), threads, [&](std::size_t i) {
    scores[i] = ctx.replay_score(elites[i].genome);
  });
  std::size_t best = elites.size();
  for (std::size_t i = 0; i < elites.size(); ++i)
    if (best == elites.size() || scores[i] < scores[best]) best = i;
  if (best == elites.size() || !std::isfinite(scores[best])) return fallback;
  return elites[best].genome;
}

/// Every normalised single-gene neighbour of `g` (all other sizes, all
/// other applicable policies, the align toggle), in deterministic
/// (layer, move) order.  Used by beam expansion and by replay polish.
std::vector<Genome> neighbours(const Decoder& dec, const Genome& g) {
  std::vector<Genome> out;
  for (std::size_t l = 0; l < g.size(); ++l) {
    for (std::size_t s = 0; s < dec.sizes().size(); ++s) {
      if (s == g[l].size_index) continue;
      Genome n = g;
      n[l].size_index = static_cast<std::uint8_t>(s);
      dec.normalize(n);
      out.push_back(std::move(n));
    }
    const std::size_t size = dec.sizes()[g[l].size_index];
    for (std::uint8_t p : dec.applicable_policies(l, size)) {
      if (p == g[l].policy) continue;
      Genome n = g;
      n[l].policy = p;
      out.push_back(std::move(n));
    }
    Genome n = g;
    n[l].align = !n[l].align;
    out.push_back(std::move(n));
  }
  return out;
}

/// Replay-scored coordinate descent around `g`: each round scores the
/// full single-gene neighbourhood under the event-driven oracle and moves
/// to the best strict improvement (lowest index wins ties), stopping
/// early at a local optimum.  The analytic oracle explores whole families
/// fast, but it is congestion-blind — two mappings a few percent apart
/// analytically can differ 3x in measured stall cycles.  Replay ranks
/// those faithfully, so polishing the promoted winner under it makes the
/// final mapping a local optimum of the measured-fidelity score.
Genome replay_polish(const SearchContext& ctx, Genome g,
                     const SearchOptions& opt) {
  double best = ctx.replay_score(g);
  if (!std::isfinite(best)) return g;
  for (std::size_t round = 0; round < opt.polish; ++round) {
    const std::vector<Genome> hood = neighbours(ctx.decoder(), g);
    std::vector<double> scores(hood.size(), kInf);
    parallel_for(hood.size(), opt.threads, [&](std::size_t i) {
      scores[i] = ctx.replay_score(hood[i]);
    });
    std::size_t pick = hood.size();
    for (std::size_t i = 0; i < hood.size(); ++i)
      if (std::isfinite(scores[i]) && scores[i] < best &&
          (pick == hood.size() || scores[i] < scores[pick]))
        pick = i;
    if (pick == hood.size()) break;
    g = hood[pick];
    best = scores[pick];
  }
  return g;
}

// ---------------------------------------------------------------- annealer --

/// One single-gene mutation, normalised.  All draws come from `rng`
/// sequentially, so the proposal stream is independent of thread count.
Genome mutate(const Decoder& dec, const Genome& state, Rng& rng) {
  Genome g = state;
  const std::size_t l = rng.below(g.size());
  const std::size_t n_sizes = dec.sizes().size();
  std::uint64_t field = rng.below(3);
  if (field == 0 && n_sizes < 2) field = 2;
  if (field == 1) {
    const std::size_t size = dec.sizes()[g[l].size_index];
    const auto policies = dec.applicable_policies(l, size);
    std::vector<std::uint8_t> others;
    for (std::uint8_t p : policies)
      if (p != g[l].policy) others.push_back(p);
    if (others.empty())
      field = 2;
    else
      g[l].policy = others[rng.below(others.size())];
  }
  if (field == 0) {
    std::uint64_t pick = rng.below(n_sizes - 1);
    if (pick >= g[l].size_index) ++pick;
    g[l].size_index = static_cast<std::uint8_t>(pick);
  } else if (field == 2) {
    g[l].align = !g[l].align;
  }
  dec.normalize(g);
  return g;
}

Genome run_anneal(const SearchContext& ctx, const SearchOptions& opt,
                  std::size_t layers) {
  const Decoder& dec = ctx.decoder();
  Rng moves(stream_seed(opt.seed, 0));

  Candidate paper{paper_genome(dec, layers), 0.0};
  Candidate greedy{greedy_genome(dec, layers), 0.0};
  paper.score = ctx.analytic_score(paper.genome);
  greedy.score = ctx.analytic_score(greedy.genome);
  std::vector<Candidate> elites;
  update_elites(elites, paper, opt.elites);
  update_elites(elites, greedy, opt.elites);
  Candidate state = greedy.score < paper.score ? greedy : paper;

  const std::size_t k = opt.proposals;
  std::vector<Genome> proposals(k);
  std::vector<double> scores(k, kInf);
  std::vector<double> accepts(k, 0.0);
  for (std::size_t round = 0; round < opt.rounds; ++round) {
    // Draw every proposal and acceptance uniform sequentially from the
    // single move stream, then fan the scoring out: the random sequence
    // never depends on evaluation order or thread count.
    for (std::size_t i = 0; i < k; ++i)
      proposals[i] = mutate(dec, state.genome, moves);
    for (std::size_t i = 0; i < k; ++i) accepts[i] = moves.uniform();
    parallel_for(k, opt.threads, [&](std::size_t i) {
      scores[i] = ctx.analytic_score(proposals[i]);
    });
    for (std::size_t i = 0; i < k; ++i)
      update_elites(elites, {proposals[i], scores[i]}, opt.elites);

    // Best-of-K acceptance: the round's best proposal (lowest index wins
    // ties) replaces the state when it improves; otherwise a Metropolis
    // draw on that best proposal may still take the uphill step.  One
    // move per round, chosen sequentially, so the trajectory is a pure
    // function of the seed.
    std::size_t pick = k;
    for (std::size_t i = 0; i < k; ++i) {
      if (!std::isfinite(scores[i])) continue;
      if (pick == k || scores[i] < scores[pick]) pick = i;
    }
    if (pick == k) continue;
    const double temp = opt.t0 * std::pow(opt.alpha, static_cast<double>(round));
    bool accept = scores[pick] < state.score;
    if (!accept && std::isfinite(state.score) && state.score > 0.0) {
      const double rel = (scores[pick] - state.score) / state.score;
      accept = accepts[pick] < std::exp(-rel / std::max(temp, 1e-12));
    }
    if (accept) state = {proposals[pick], scores[pick]};
  }
  update_elites(elites, state, opt.elites);
  // Promotion pool = elites plus the one-shot baselines: the replay
  // oracle judges them all on the same calibration trace, so the search
  // can only return something it measures as no worse than paper or
  // greedy-pack — a safety net against analytic-model blind spots.
  std::vector<Candidate> pool = elites;
  add_to_pool(pool, paper);
  add_to_pool(pool, greedy);
  return replay_polish(ctx, promote(ctx, pool, state.genome, opt.threads),
                       opt);
}

// -------------------------------------------------------------- beam search --

Genome run_beam(const SearchContext& ctx, const SearchOptions& opt,
                std::size_t layers) {
  const Decoder& dec = ctx.decoder();
  std::vector<Candidate> beam;
  std::set<Genome> seen;
  for (Genome g : {paper_genome(dec, layers), greedy_genome(dec, layers)}) {
    if (!seen.insert(g).second) continue;
    const double s = ctx.analytic_score(g);
    if (std::isfinite(s)) beam.push_back({std::move(g), s});
  }
  std::stable_sort(
      beam.begin(), beam.end(),
      [](const Candidate& a, const Candidate& b) { return a.score < b.score; });
  if (beam.empty()) return paper_genome(dec, layers);

  double best = beam.front().score;
  for (std::size_t depth = 0; depth < opt.rounds; ++depth) {
    // Expand the whole beam, deduplicated against everything ever scored
    // (membership tests are on exact genomes, so no hash-collision drift).
    std::vector<Genome> frontier;
    for (const Candidate& c : beam)
      for (Genome& n : neighbours(dec, c.genome))
        if (seen.insert(n).second) frontier.push_back(std::move(n));
    if (frontier.empty()) break;
    std::vector<double> scores(frontier.size(), kInf);
    parallel_for(frontier.size(), opt.threads, [&](std::size_t i) {
      scores[i] = ctx.analytic_score(frontier[i]);
    });
    for (std::size_t i = 0; i < frontier.size(); ++i)
      if (std::isfinite(scores[i]))
        beam.push_back({std::move(frontier[i]), scores[i]});
    std::stable_sort(beam.begin(), beam.end(),
                     [](const Candidate& a, const Candidate& b) {
                       if (a.score != b.score) return a.score < b.score;
                       return a.genome < b.genome;
                     });
    if (beam.size() > opt.proposals) beam.resize(opt.proposals);
    if (beam.front().score >= best) break;  // converged: no improvement
    best = beam.front().score;
  }

  std::vector<Candidate> pool(
      beam.begin(),
      beam.begin() +
          static_cast<std::ptrdiff_t>(std::min(opt.elites, beam.size())));
  // Same safety net as the annealer: the one-shot baselines always reach
  // the replay-promotion round.
  add_to_pool(pool, {paper_genome(dec, layers),
                     ctx.analytic_score(paper_genome(dec, layers))});
  add_to_pool(pool, {greedy_genome(dec, layers),
                     ctx.analytic_score(greedy_genome(dec, layers))});
  return replay_polish(ctx, promote(ctx, pool, beam.front().genome,
                                    opt.threads),
                       opt);
}

// -------------------------------------------------------------- strategies --

/// Env/config-independent sanitisation: the chip's own size is always a
/// candidate, out-of-range sizes are dropped (the verifier's
/// RV-CAP-MCA-SIZE domain), and every count is at least 1.
SearchOptions sanitized(SearchOptions opt, const ResparcConfig& cfg) {
  std::vector<std::size_t> sizes;
  for (std::size_t s : opt.sizes)
    if (s >= 8 && s <= 1024) sizes.push_back(s);
  sizes.push_back(cfg.mca_size);
  std::sort(sizes.begin(), sizes.end());
  sizes.erase(std::unique(sizes.begin(), sizes.end()), sizes.end());
  opt.sizes = std::move(sizes);
  opt.rounds = std::max<std::size_t>(1, opt.rounds);
  opt.proposals = std::max<std::size_t>(1, opt.proposals);
  opt.elites = std::max<std::size_t>(1, opt.elites);
  opt.calibration_steps = std::max<std::size_t>(1, opt.calibration_steps);
  if (!(opt.activity > 0.0 && opt.activity <= 1.0)) opt.activity = 0.10;
  return opt;
}

/// Shared shell of both search strategies: sanitise the options, run the
/// search, and decode the winning genome into the mapping.
class SearchStrategyBase : public MappingStrategy {
 public:
  explicit SearchStrategyBase(SearchOptions options)
      : options_(std::move(options)) {}

  Mapping map(const snn::Topology& topology,
              const ResparcConfig& cfg) const override {
    const SearchOptions opt = sanitized(options_, cfg);
    SearchContext ctx(topology, cfg, opt);
    const Genome winner = run(ctx, opt, topology.layer_count());
    return ctx.decoder().decode(winner).mapping;
  }

 protected:
  virtual Genome run(const SearchContext& ctx, const SearchOptions& opt,
                     std::size_t layers) const = 0;

 private:
  SearchOptions options_;
};

class AnnealStrategy final : public SearchStrategyBase {
 public:
  using SearchStrategyBase::SearchStrategyBase;
  std::string name() const override { return "anneal"; }

 protected:
  Genome run(const SearchContext& ctx, const SearchOptions& opt,
             std::size_t layers) const override {
    return run_anneal(ctx, opt, layers);
  }
};

class BeamStrategy final : public SearchStrategyBase {
 public:
  using SearchStrategyBase::SearchStrategyBase;
  std::string name() const override { return "beam"; }

 protected:
  Genome run(const SearchContext& ctx, const SearchOptions& opt,
             std::size_t layers) const override {
    return run_beam(ctx, opt, layers);
  }
};

/// The non-negative decimal integer in environment variable `name`, or
/// nullopt when it is unset or not one: a sign, trailing junk or a value
/// past 2^64 - 1 all count as "not set" rather than wrapping around.
std::optional<std::uint64_t> env_u64(const char* name) {
  const char* text = std::getenv(name);
  if (text == nullptr || !std::isdigit(static_cast<unsigned char>(*text)))
    return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (*end != '\0' || errno == ERANGE) return std::nullopt;
  return v;
}

}  // namespace

SearchOptions SearchOptions::from_env() {
  SearchOptions opt;
  if (const auto budget = env_u64("RESPARC_SEARCH_BUDGET"))
    opt.rounds = static_cast<std::size_t>(
        std::min<std::uint64_t>(opt.rounds, *budget));
  if (const auto seed = env_u64("RESPARC_BENCH_SEED")) opt.seed = *seed;
  return opt;
}

std::unique_ptr<MappingStrategy> make_anneal_strategy() {
  return make_anneal_strategy(SearchOptions::from_env());
}

std::unique_ptr<MappingStrategy> make_anneal_strategy(
    const SearchOptions& options) {
  return std::make_unique<AnnealStrategy>(options);
}

std::unique_ptr<MappingStrategy> make_beam_strategy() {
  return make_beam_strategy(SearchOptions::from_env());
}

std::unique_ptr<MappingStrategy> make_beam_strategy(
    const SearchOptions& options) {
  return std::make_unique<BeamStrategy>(options);
}

}  // namespace resparc::compile::search

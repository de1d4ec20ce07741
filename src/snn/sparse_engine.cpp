#include "snn/sparse_engine.hpp"

#include <algorithm>
#include <bit>

#include "common/error.hpp"
#include "snn/scatter.hpp"

namespace resparc::snn {

SparseEngine::SparseEngine(const Network& net) : net_(net) {
  const Topology& topo = net.topology();
  state_.reserve(topo.layer_count());
  for (std::size_t l = 0; l < topo.layer_count(); ++l) {
    const LayerInfo& li = topo.layers()[l];
    const IfParams& p = net.layer(l).neuron;
    state_.emplace_back(li.neurons, p);
    LayerState& st = state_.back();
    st.scratch.assign(scatter_scratch_size(li), 0.0f);
    // Any event into a fully connected layer drives every output column,
    // so per-column stamping is pure overhead there.
    st.all_touched = li.spec.kind == LayerKind::kDense;
    // Outside this regime a silent neuron still changes state (leak) or
    // can fire spontaneously (vth <= 0), so the population must be
    // stepped densely; accumulation stays sparse either way.
    st.dense_fallback = p.leak_per_step > 0.0 || p.v_threshold <= 0.0;
    switch (li.spec.kind) {
      case LayerKind::kDense:
        st.touches_per_event = li.neurons;
        break;
      case LayerKind::kConv:
        st.touches_per_event =
            li.spec.kernel * li.spec.kernel * li.out_shape.c;
        break;
      case LayerKind::kAvgPool:
        st.touches_per_event = 1;
        break;
    }
  }
  // One reusable pool job: run_indexed takes it by const reference, so
  // the pooled steady state allocates nothing per call.
  pool_fn_ = [this](std::size_t part, std::size_t /*worker*/) {
    scatter_accumulate(net_.topology().layers()[job_layer_],
                       net_.layer(job_layer_).weights, *job_in_,
                       state_[job_layer_].current, state_[job_layer_].scratch,
                       part, pool_parts_);
  };
}

void SparseEngine::set_pool(ThreadPool* pool, std::size_t parts,
                            std::size_t min_outputs) {
  if (pool != nullptr)
    parts = parts == 0 ? pool->width() : std::min(parts, pool->width());
  pool_ = parts > 1 ? pool : nullptr;
  pool_parts_ = pool_ != nullptr ? parts : 1;
  pool_min_outputs_ = min_outputs;
}

void SparseEngine::accumulate_stamped(std::size_t l,
                                      std::span<const std::uint32_t> in_active,
                                      LayerState& st) {
  const LayerInfo& li = net_.topology().layers()[l];
  std::vector<float>& current = st.current;
  const std::uint32_t epoch = st.epoch;

  // Stamps `c` as touched.
  const auto touch = [&](std::size_t c) {
    if (st.stamp[c] != epoch) {
      st.stamp[c] = epoch;
      st.touched.push_back(static_cast<std::uint32_t>(c));
    }
  };

  // Each output element sees the same additions in the same order as in
  // snn/scatter.cpp — ascending events, then (ky, kx), starting from the
  // all-zero buffer — so the floating-point result is bit-for-bit
  // identical to the full-drive scatter, although this loop adds straight
  // into the CHW buffer to stamp each column it writes.  Dense layers
  // never get here: any event saturates them.
  if (li.spec.kind == LayerKind::kConv) {
    const Matrix& w = net_.layer(l).weights;  // (inC*k*k) x outC
    const Shape3 in_shape = li.in_shape;
    const Shape3 out = li.out_shape;
    const std::size_t k = li.spec.kernel;
    const std::size_t pad = li.spec.same_padding ? k / 2 : 0;
    for (const std::uint32_t idx : in_active) {
      const std::size_t c = idx / (in_shape.h * in_shape.w);
      const std::size_t rem = idx % (in_shape.h * in_shape.w);
      const std::size_t y = rem / in_shape.w;
      const std::size_t x = rem % in_shape.w;
      for (std::size_t ky = 0; ky < k; ++ky) {
        const std::ptrdiff_t oy =
            static_cast<std::ptrdiff_t>(y + pad) - static_cast<std::ptrdiff_t>(ky);
        if (oy < 0 || oy >= static_cast<std::ptrdiff_t>(out.h)) continue;
        for (std::size_t kx = 0; kx < k; ++kx) {
          const std::ptrdiff_t ox =
              static_cast<std::ptrdiff_t>(x + pad) - static_cast<std::ptrdiff_t>(kx);
          if (ox < 0 || ox >= static_cast<std::ptrdiff_t>(out.w)) continue;
          const std::size_t wrow = (c * k + ky) * k + kx;
          const auto kernels = w.row(wrow);
          const std::size_t base =
              static_cast<std::size_t>(oy) * out.w + static_cast<std::size_t>(ox);
          for (std::size_t oc = 0; oc < out.c; ++oc) {
            const std::size_t at = oc * out.h * out.w + base;
            touch(at);
            current[at] += kernels[oc];
          }
        }
      }
    }
    return;
  }
  // kAvgPool: each event touches exactly one output.
  const Shape3 in_shape = li.in_shape;
  const Shape3 out = li.out_shape;
  const std::size_t p = li.spec.pool;
  const float share = 1.0f / static_cast<float>(p * p);
  for (const std::uint32_t idx : in_active) {
    const std::size_t c = idx / (in_shape.h * in_shape.w);
    const std::size_t rem = idx % (in_shape.h * in_shape.w);
    const std::size_t y = rem / in_shape.w;
    const std::size_t x = rem % in_shape.w;
    const std::size_t at = (c * out.h + y / p) * out.w + x / p;
    touch(at);
    current[at] += share;
  }
}

void SparseEngine::scatter_full(std::size_t l, const SpikeVector& in,
                                LayerState& st) {
  const LayerInfo& li = net_.topology().layers()[l];
  if (pool_ != nullptr && li.neurons >= pool_min_outputs_) {
    job_layer_ = l;
    job_in_ = &in;
    pool_->run_indexed(pool_parts_, pool_parts_, pool_fn_);
    return;
  }
  scatter_accumulate(li, net_.layer(l).weights, in, st.current, st.scratch);
}

void SparseEngine::reset() {
  for (LayerState& st : state_) {
    st.pop.clear();
    st.out.reset(st.out.size());
    st.fired = 0;
    st.hot.clear();
    st.hot_in_out = false;
    st.touched.clear();
    // The all-zero `current` invariant already holds between steps, and
    // `stamp`/`epoch` are self-correcting (epoch strictly increases), so
    // nothing else needs touching.
  }
}

const SpikeVector& SparseEngine::step_layer(std::size_t l,
                                            const SpikeVector& in,
                                            std::size_t events) {
  require(l < state_.size(), "engine: layer out of range");
  LayerState& st = state_[l];
  ++st.epoch;
  st.touched.clear();

  // A step saturates once the events' combined fan-out covers the
  // population: stamping would cost more than stepping everyone.
  const bool full_drive =
      events > 0 && (st.all_touched ||
                     events * st.touches_per_event >= st.current.size());
  if (full_drive) {
    scatter_full(l, in, st);
  } else if (events > 0) {
    in_active_.clear();
    in.append_active(in_active_);
    accumulate_stamped(l, in_active_, st);
  }

  if (full_drive || st.dense_fallback) {
    // Either the events cover the population anyway or every membrane
    // evolves every step (leak / zero threshold): run the vectorizable
    // whole-population update straight into the output words, which it
    // fully overwrites.
    st.fired = st.pop.step_packed(st.current, st.out);
    // The hot set of this step is derived from `out` only if the next
    // step is stamped; back-to-back full-drive steps never need it.
    st.hot.clear();
    st.hot_in_out = true;
  } else {
    if (st.hot_in_out) {
      // The previous step was full-drive: a subtractive reset can have
      // left a neuron it fired at or above threshold (only fired neurons
      // can qualify), and `out` still holds those spikes.
      const float vth = static_cast<float>(st.pop.params().v_threshold);
      const auto words = st.out.words();
      for (std::size_t w = 0; w < words.size(); ++w) {
        for (std::uint64_t word = words[w]; word != 0; word &= word - 1) {
          const auto i = static_cast<std::uint32_t>(
              (w << 6) + static_cast<unsigned>(std::countr_zero(word)));
          if (st.pop.membrane(i) >= vth) st.hot.push_back(i);
        }
      }
      st.hot_in_out = false;
    }
    // Step set = touched columns ∪ hot carry-overs (a subtractive reset
    // can leave the membrane at or above threshold, in which case the
    // neuron fires again next step with no input at all).
    st.step_set.assign(st.touched.begin(), st.touched.end());
    for (const std::uint32_t i : st.hot)
      if (st.stamp[i] != st.epoch) st.step_set.push_back(i);
    st.hot.clear();
    fired_.clear();
    st.pop.step_at(st.step_set, st.current, fired_, st.hot);
    if (st.fired != 0) st.out.reset(st.out.size());
    for (const std::uint32_t i : fired_) st.out.set(i);
    st.fired = fired_.size();
  }

  // Restore the all-zero current invariant, clearing only what was
  // written.
  if (full_drive) {
    std::fill(st.current.begin(), st.current.end(), 0.0f);
  } else {
    for (const std::uint32_t i : st.touched) st.current[i] = 0.0f;
  }
  return st.out;
}

}  // namespace resparc::snn

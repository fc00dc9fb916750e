#include "layered.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <set>
#include <utility>

#include "analysis/call_graph.h"
#include "analysis/components/matcher.h"
#include "analysis/pointsto/pointsto.h"
#include "analysis/valueflow/valueflow.h"
#include "core/exec_identifier.h"
#include "core/form_check.h"
#include "core/reconstructor.h"
#include "core/taint.h"
#include "ir/library.h"
#include "support/hash.h"

namespace firmbench {

namespace core = firmres::core;
namespace fw = firmres::fw;
namespace ir = firmres::ir;
namespace analysis = firmres::analysis;
namespace components = firmres::analysis::components;
using firmres::support::Hasher;

int Tracer::open(const char* name) {
  const int index = static_cast<int>(spans_.size());
  spans_.push_back(Record{name, stack_.empty() ? -1 : stack_.back(),
                          std::chrono::steady_clock::now(), {}});
  stack_.push_back(index);
  return index;
}

void Tracer::close(int index) {
  spans_[static_cast<std::size_t>(index)].end =
      std::chrono::steady_clock::now();
  stack_.pop_back();
}

namespace {

double span_ms(std::chrono::steady_clock::time_point start,
               std::chrono::steady_clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}

}  // namespace

std::map<std::string, double> Tracer::self_ms() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[i] = span_ms(spans_[i].start, spans_[i].end);
  for (const Record& r : spans_)
    if (r.parent >= 0)
      self[static_cast<std::size_t>(r.parent)] -= span_ms(r.start, r.end);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    out[spans_[i].name] += self[i];
  return out;
}

std::map<std::string, double> Tracer::total_ms() const {
  std::map<std::string, double> out;
  for (const Record& r : spans_) out[r.name] += span_ms(r.start, r.end);
  return out;
}

fw::Primitive TimedModel::classify(const std::string& slice_text) const {
  ++calls_;
  distinct_.insert(slice_text);
  const Span span(tracer_, "core.semantics_classify");
  return inner_.classify(slice_text);
}

core::ScoredClassification TimedModel::classify_scored(
    const std::string& slice_text) const {
  ++calls_;
  distinct_.insert(slice_text);
  const Span span(tracer_, "core.semantics_classify");
  return inner_.classify_scored(slice_text);
}

namespace {

/// Hash of a function's resolved-caller set: the fn-tier cache dependency
/// Pipeline::analyze records (same salt and field order).
std::uint64_t callers_hash(const analysis::CallGraph& cg,
                           const std::string& fn_name) {
  Hasher h(0x63616c6c5f763031ULL);
  const std::vector<analysis::CallSite> sites =
      cg.resolved_callsites_of(fn_name);
  h.u64(sites.size());
  for (const analysis::CallSite& s : sites)
    h.str(s.caller->name()).u64(s.op->address).u64(s.arg_offset);
  return h.digest();
}

bool is_program(const fw::FirmwareFile& file) {
  return file.kind == fw::FirmwareFile::Kind::Executable &&
         file.program != nullptr;
}

}  // namespace

core::DeviceAnalysis analyze_layered(const fw::FirmwareImage& image,
                                     const core::SemanticsModel& model,
                                     const components::LibraryRegistry* registry,
                                     core::AnalysisCache* cache,
                                     Tracer& tracer) {
  const core::Pipeline::Options defaults;
  core::DeviceAnalysis out;
  out.device_id = image.profile.id;

  std::map<const ir::Function*, analysis::ValueFlow::Substitution>
      registry_subs;
  std::set<const ir::Function*> registry_branchless;
  std::map<std::string, std::string> component_labels;
  if (registry != nullptr) {
    const Span span(tracer, "analysis.components");
    std::vector<components::MatchResult> results;
    for (const fw::FirmwareFile& file : image.files)
      if (is_program(file))
        results.push_back(components::match_program(*file.program, *registry));
    std::vector<const components::MatchResult*> views;
    for (const components::MatchResult& r : results) views.push_back(&r);
    out.components = components::component_inventory(*registry, views);
    for (const components::MatchResult& r : results) {
      registry_subs.insert(r.substitutions.begin(), r.substitutions.end());
      registry_branchless.insert(r.branchless.begin(), r.branchless.end());
      for (const components::FunctionMatch& m : r.matches) {
        std::string label = m.registry_function + " [";
        for (std::size_t k = 0; k < m.refs.size(); ++k) {
          const components::RegistryLibrary& lib =
              registry->libraries()[m.refs[k].library];
          if (k > 0) label += ", ";
          label += lib.name + " " + lib.version;
        }
        label += "]";
        component_labels.emplace(m.fn->name(), std::move(label));
      }
    }
  }

  // §IV-A identification, with the ident cache tier.
  core::ExecutableIdentifier::Options ident_options = defaults.identifier;
  if (registry != nullptr) {
    ident_options.substitutions = &registry_subs;
    ident_options.registry_branchless = &registry_branchless;
  }
  const core::ExecutableIdentifier identifier(ident_options);
  std::uint64_t ident_salt = 0;
  if (cache != nullptr) {
    ident_salt = Hasher(0x6964656e745f7631ULL)
                     .f64(defaults.identifier.pf_threshold)
                     .boolean(defaults.identifier.require_async)
                     .boolean(defaults.identifier.use_pf_scoring)
                     .boolean(defaults.identifier.devirtualize)
                     .digest();
  }
  std::vector<const ir::Program*> device_cloud;
  std::vector<std::uint64_t> program_hashes;
  std::uint64_t executables_scanned = 0;
  for (const fw::FirmwareFile& file : image.files) {
    if (!is_program(file)) continue;
    ++executables_scanned;
    std::uint64_t program_hash = 0;
    std::uint64_t key = 0;
    std::optional<bool> verdict;
    if (cache != nullptr) {
      const Span span(tracer, "core.analysis_cache");
      program_hash = core::AnalysisCache::hash_program_ir(*file.program);
      key = Hasher(0x6964656e742e6b79ULL).u64(ident_salt).u64(program_hash)
                .digest();
      verdict = cache->lookup_ident(key);
    }
    if (!verdict.has_value()) {
      {
        const Span span(tracer, "core.exec_identifier");
        verdict = identifier.analyze(*file.program).is_device_cloud;
      }
      if (cache != nullptr) {
        const Span span(tracer, "core.analysis_cache");
        cache->store_ident(key, *verdict);
      }
    }
    if (*verdict) {
      device_cloud.push_back(file.program.get());
      program_hashes.push_back(program_hash);
      if (out.device_cloud_executable.empty())
        out.device_cloud_executable = file.path;
    }
  }

  std::uint64_t mft_count = 0, mft_nodes = 0, mft_leaves = 0;
  const auto finalize = [&] {
    out.metrics = {
        {"pinpoint.executables_scanned", executables_scanned},
        {"pinpoint.device_cloud_programs", device_cloud.size()},
        {"taint.mft_count", mft_count},
        {"taint.mft_nodes", mft_nodes},
        {"taint.mft_leaves", mft_leaves},
        {"valueflow.indirect_total",
         static_cast<std::uint64_t>(out.indirect_calls_total)},
        {"valueflow.indirect_resolved",
         static_cast<std::uint64_t>(out.indirect_calls_resolved)},
        {"semantics.messages_reconstructed", out.messages.size()},
        {"concat.lan_discarded",
         static_cast<std::uint64_t>(out.discarded_lan)},
        {"check.flaw_alarms", out.flaws.size()},
    };
  };
  if (device_cloud.empty()) {
    finalize();
    return out;
  }

  std::uint64_t analysis_salt = 0;
  if (cache != nullptr) {
    analysis_salt =
        Hasher(0x616e616c5f763031ULL)
            .u64(static_cast<std::uint64_t>(defaults.taint.max_depth))
            .u64(defaults.taint.max_nodes)
            .u64(static_cast<std::uint64_t>(defaults.taint.max_callsites))
            .boolean(defaults.pointsto)
            .str(model.name())
            .str(out.device_cloud_executable)
            .digest();
  }

  // §IV-B per program: program tier, then PointsTo → ValueFlow → CallGraph
  // → one MFT per delivery site, with fn-tier reuse on a program miss.
  struct FnGroup {
    const ir::Function* fn = nullptr;
    std::uint64_t key = 0;
    bool from_cache = false;
    std::vector<core::CachedMessage> cached;
    std::set<std::string> dep_names;
    std::vector<core::CachedFunctionEntry::Dep> deps;
    std::vector<core::CachedMessage> fresh;
  };
  struct SiteOutcome {
    std::optional<core::CachedMessage> ready;
    std::optional<core::Mft> mft;
    int group = -1;
  };
  struct ProgramWork {
    std::unique_ptr<analysis::pointsto::PointsTo> pointsto;
    std::unique_ptr<analysis::ValueFlow> valueflow;
    std::optional<core::CachedProgramAnalysis> cached;
    std::vector<SiteOutcome> sites;
    std::vector<FnGroup> groups;
    std::uint64_t program_key = 0;
    core::CachedProgramAnalysis fresh;
  };
  std::vector<ProgramWork> per_program(device_cloud.size());
  for (std::size_t i = 0; i < device_cloud.size(); ++i) {
    const ir::Program& program = *device_cloud[i];
    ProgramWork& work = per_program[i];
    if (cache != nullptr) {
      const Span span(tracer, "core.analysis_cache");
      work.program_key = Hasher(0x70726f672e6b6579ULL)
                             .u64(analysis_salt)
                             .u64(program_hashes[i])
                             .digest();
      work.cached = cache->lookup_program(work.program_key);
      if (work.cached.has_value()) continue;
    }
    std::unique_ptr<analysis::pointsto::PointsTo> pt;
    if (defaults.pointsto) {
      const Span span(tracer, "analysis.pointsto");
      pt = std::make_unique<analysis::pointsto::PointsTo>(program, nullptr);
    }
    analysis::ValueFlow::Options vf_options;
    if (registry != nullptr) vf_options.substitutions = &registry_subs;
    vf_options.pointsto = pt.get();
    std::unique_ptr<analysis::ValueFlow> vf;
    {
      const Span span(tracer, "analysis.valueflow");
      vf = std::make_unique<analysis::ValueFlow>(program, nullptr, vf_options);
    }
    std::unique_ptr<analysis::CallGraph> cg;
    {
      const Span span(tracer, "analysis.call_graph");
      cg = std::make_unique<analysis::CallGraph>(program, *vf);
    }
    const core::MftBuilder builder(program, *cg, defaults.taint, pt.get());

    const analysis::ValueFlow::Stats stats = vf->stats();
    work.fresh.indirect_total = stats.indirect_total;
    work.fresh.indirect_resolved = stats.indirect_resolved;
    if (pt != nullptr) {
      const analysis::pointsto::PointsTo::Stats pt_stats = pt->stats();
      work.fresh.pt_loads_total = pt_stats.loads_total;
      work.fresh.pt_loads_resolved = pt_stats.loads_resolved;
      work.fresh.pt_loads_with_stores = pt_stats.loads_with_stores;
      work.fresh.pt_stores_total = pt_stats.stores_total;
      work.fresh.pt_stores_never_loaded = pt_stats.stores_never_loaded;
    }
    for (const analysis::ValueFlow::IndirectSite& site : vf->indirect_sites()) {
      if (site.target == nullptr) continue;
      work.fresh.devirt_sites.push_back(core::CachedProgramAnalysis::DevirtSite{
          site.caller->name(), site.target->name(), site.op->address,
          site.resolved_round});
    }

    std::vector<analysis::CallSite> sites;
    {
      const Span span(tracer, "analysis.call_graph");
      for (const std::string& name :
           ir::LibraryModel::instance().names_of_kind(ir::LibKind::MsgDeliver))
        for (const analysis::CallSite& site : cg->callsites_of(name))
          sites.push_back(site);
      std::sort(sites.begin(), sites.end(),
                [](const analysis::CallSite& a, const analysis::CallSite& b) {
                  return a.op->address < b.op->address;
                });
    }

    if (cache == nullptr) {
      for (const analysis::CallSite& site : sites) {
        SiteOutcome s;
        const Span span(tracer, "core.taint");
        s.mft = builder.build(site);
        work.sites.push_back(std::move(s));
      }
      work.valueflow = std::move(vf);
      continue;
    }

    std::vector<int> site_group;
    std::vector<std::size_t> group_sites;
    {
      const Span span(tracer, "core.analysis_cache");
      const std::uint64_t fn_salt =
          Hasher(0x666e2e73616c7431ULL)
              .u64(analysis_salt)
              .u64(core::AnalysisCache::hash_data_segment(program))
              .digest();
      std::map<const ir::Function*, int> group_of;
      for (const analysis::CallSite& site : sites) {
        const auto [it, inserted] = group_of.try_emplace(
            site.caller, static_cast<int>(work.groups.size()));
        if (inserted) {
          FnGroup g;
          g.fn = site.caller;
          g.key = Hasher(0x666e2e6b65793031ULL)
                      .u64(fn_salt)
                      .u64(core::AnalysisCache::hash_function_ir(*site.caller))
                      .digest();
          work.groups.push_back(std::move(g));
        }
        site_group.push_back(it->second);
      }
      group_sites.assign(work.groups.size(), 0);
      for (const int g : site_group) ++group_sites[static_cast<std::size_t>(g)];
      const auto dep_ok = [&](const core::CachedFunctionEntry::Dep& dep) {
        const ir::Function* dep_fn = program.function(dep.fn);
        if (dep_fn == nullptr) return false;
        if (core::AnalysisCache::hash_function_ir(*dep_fn) != dep.ir_hash)
          return false;
        if (vf->function_signature(dep_fn) != dep.vf_sig) return false;
        if (callers_hash(*cg, dep.fn) != dep.callers_hash) return false;
        return (pt != nullptr ? pt->function_signature(dep_fn) : 0) ==
               dep.pt_sig;
      };
      for (std::size_t g = 0; g < work.groups.size(); ++g) {
        FnGroup& group = work.groups[g];
        std::optional<core::CachedFunctionEntry> entry =
            cache->lookup_function(group.key, dep_ok);
        if (entry.has_value() && entry->messages.size() == group_sites[g]) {
          group.from_cache = true;
          group.cached = std::move(entry->messages);
        }
      }
    }

    std::vector<std::size_t> consumed(work.groups.size(), 0);
    for (std::size_t si = 0; si < sites.size(); ++si) {
      const std::size_t g = static_cast<std::size_t>(site_group[si]);
      FnGroup& group = work.groups[g];
      SiteOutcome s;
      s.group = static_cast<int>(g);
      if (group.from_cache) {
        s.ready = group.cached[consumed[g]++];
      } else {
        {
          const Span span(tracer, "core.taint");
          s.mft = builder.build(sites[si]);
        }
        group.dep_names.insert(group.fn->name());
        for (const core::TaintProvenance& p : s.mft->provenance)
          group.dep_names.insert(p.visited_functions.begin(),
                                 p.visited_functions.end());
      }
      work.sites.push_back(std::move(s));
    }
    {
      const Span span(tracer, "core.analysis_cache");
      for (FnGroup& group : work.groups) {
        if (group.from_cache) continue;
        for (const std::string& name : group.dep_names) {
          const ir::Function* dep_fn = program.function(name);
          if (dep_fn == nullptr) continue;
          group.deps.push_back(core::CachedFunctionEntry::Dep{
              name, core::AnalysisCache::hash_function_ir(*dep_fn),
              vf->function_signature(dep_fn), callers_hash(*cg, name),
              pt != nullptr ? pt->function_signature(dep_fn) : 0});
        }
      }
    }
    work.pointsto = std::move(pt);
    work.valueflow = std::move(vf);
  }

  for (const ProgramWork& work : per_program) {
    const core::CachedProgramAnalysis& summary =
        work.cached.has_value() ? *work.cached : work.fresh;
    out.indirect_calls_total += static_cast<int>(summary.indirect_total);
    out.indirect_calls_resolved += static_cast<int>(summary.indirect_resolved);
    out.memory_flow.loads_total += summary.pt_loads_total;
    out.memory_flow.loads_resolved += summary.pt_loads_resolved;
    out.memory_flow.loads_with_stores += summary.pt_loads_with_stores;
    out.memory_flow.stores_total += summary.pt_stores_total;
    out.memory_flow.stores_never_loaded += summary.pt_stores_never_loaded;
    const auto observe_mft = [&](std::uint64_t nodes, std::uint64_t leaves) {
      ++mft_count;
      mft_nodes += nodes;
      mft_leaves += leaves;
    };
    if (work.cached.has_value()) {
      for (const core::CachedMessage& m : work.cached->messages)
        observe_mft(m.mft_nodes, m.mft_leaves);
    } else {
      for (const SiteOutcome& s : work.sites)
        observe_mft(
            s.ready.has_value() ? s.ready->mft_nodes : s.mft->node_count(),
            s.ready.has_value() ? s.ready->mft_leaves : s.mft->leaf_count());
    }
  }

  // §IV-C/D reconstruction; classification time is the TimedModel's span.
  const core::Reconstructor reconstructor(model);
  const auto deliver = [&](const core::CachedMessage& m) {
    out.mft_decisions.push_back(m.decision);
    if (m.message.has_value()) {
      out.opaque_terminations += m.message->opaque_terminations;
      out.param_terminations += m.message->param_terminations;
      out.memory_terminations += m.message->memory_terminations;
      out.messages.push_back(*m.message);
    } else {
      ++out.discarded_lan;
    }
  };
  for (ProgramWork& work : per_program) {
    if (work.cached.has_value()) {
      for (const core::CachedMessage& m : work.cached->messages) deliver(m);
      continue;
    }
    for (SiteOutcome& s : work.sites) {
      if (s.ready.has_value()) {
        deliver(*s.ready);
        work.fresh.messages.push_back(std::move(*s.ready));
        continue;
      }
      core::CachedMessage m;
      m.fn = s.mft->delivery_fn->name();
      {
        const Span span(tracer, "core.reconstructor");
        m.message = reconstructor.reconstruct_one(
            *s.mft, out.device_cloud_executable, work.valueflow.get(),
            &m.decision);
      }
      m.mft_nodes = s.mft->node_count();
      m.mft_leaves = s.mft->leaf_count();
      deliver(m);
      if (cache != nullptr) {
        if (s.group >= 0)
          work.groups[static_cast<std::size_t>(s.group)].fresh.push_back(m);
        work.fresh.messages.push_back(std::move(m));
      }
    }
    if (cache != nullptr) {
      const Span span(tracer, "core.analysis_cache");
      for (FnGroup& group : work.groups) {
        if (group.from_cache) continue;
        core::CachedFunctionEntry entry;
        entry.fn = group.fn->name();
        entry.deps = group.deps;
        entry.messages = std::move(group.fresh);
        cache->store_function(group.key, entry);
      }
      cache->store_program(work.program_key, work.fresh);
    }
  }

  if (!component_labels.empty()) {
    for (core::ReconstructedMessage& message : out.messages) {
      for (core::ReconstructedField& field : message.fields) {
        std::vector<std::string>& labels =
            field.provenance.registry_components;
        for (const std::string& fn : field.provenance.visited_functions) {
          const auto it = component_labels.find(fn);
          if (it != component_labels.end()) labels.push_back(it->second);
        }
        if (labels.empty()) continue;
        std::sort(labels.begin(), labels.end());
        labels.erase(std::unique(labels.begin(), labels.end()), labels.end());
      }
    }
  }

  {
    const Span span(tracer, "core.form_check");
    std::vector<std::string> files;
    for (const fw::FirmwareFile& f : image.files) files.push_back(f.path);
    out.flaws = core::FormChecker().check(out.messages, files);
  }
  finalize();
  return out;
}

}  // namespace firmbench

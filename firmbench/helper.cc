// firmbench_helper — in-process companion of firmbench/run.py.
//
//   gen <out-dir> --corpus standard|sdk --seed S [--registry-out PATH]
//       Synthesize the workload's images. Seed 0 keeps the canonical
//       Table I profiles; any other seed re-seeds every DeviceProfile.seed.
//   reference <dir>... --out FILE --model keyword|PATH [--registry PATH]
//       Uncached, sequential Pipeline::analyze of each image. FILE gets one
//       line of synthesizer-truth totals, then one line per image holding
//       its compact report (timings omitted).
//   update-server --seed S [--registry PATH]
//       Firmware updates on demand: reads `<image-dir> <version>` lines,
//       appends dead ops to seeded local functions of the image's
//       device-cloud program in place, and answers each with the uncached
//       reference report of the new bytes (one line, as `reference` writes).
//   trace --requests FILE --work DIR --seconds T --jobs J
//       The traced run: layer-by-layer analysis of the listed requests
//       (layered.h), checked against Pipeline::analyze. Prints the
//       per-layer metrics as one JSON line.
//
// Exit codes: 0 success, 1 failure (message on stderr), 2 usage.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/components/registry.h"
#include "cloud/cloud.h"
#include "cloud/evaluation.h"
#include "core/analysis_cache.h"
#include "core/corpus_runner.h"
#include "core/pipeline.h"
#include "core/report.h"
#include "core/sdk_registry.h"
#include "firmware/serializer.h"
#include "firmware/synthesizer.h"
#include "ir/serializer.h"
#include "layered.h"
#include "nlp/model.h"
#include "support/error.h"
#include "support/hash.h"
#include "support/json.h"
#include "support/logging.h"
#include "support/observability/metrics.h"
#include "support/rng.h"
#include "support/strings.h"

namespace {

namespace fsys = std::filesystem;
using namespace firmres;
using firmbench::Span;
using firmbench::Tracer;
using support::Json;
using support::JsonArray;
using support::JsonObject;

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> flags;

  std::string get(const std::string& name, const std::string& fallback = "") const {
    const auto it = flags.find(name);
    return it == flags.end() ? fallback : it->second;
  }
  std::string need(const std::string& name) const {
    const auto it = flags.find(name);
    if (it == flags.end())
      throw support::ParseError("missing required flag " + name);
    return it->second;
  }
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--", 0) == 0) {
      if (i + 1 >= argc) throw support::ParseError(a + " requires a value");
      args.flags[a] = argv[++i];
    } else {
      args.positional.push_back(a);
    }
  }
  return args;
}

void write_text(const fsys::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out) throw support::ParseError("cannot write " + path.string());
}

std::string read_text(const fsys::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw support::ParseError("cannot read " + path.string());
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// The workload seed's stream for one device: seed 0 is the identity.
std::uint64_t reseed(std::uint64_t workload_seed, const fw::DeviceProfile& p) {
  if (workload_seed == 0) return p.seed;
  return support::Hasher(0x6669726d62656e63ULL)
      .u64(workload_seed)
      .u64(static_cast<std::uint64_t>(p.id))
      .u64(p.seed)
      .digest();
}

/// A semantics model: the keyword matcher, or a trained classifier file.
struct LoadedModel {
  core::KeywordModel keyword;
  std::unique_ptr<nlp::SliceClassifier> neural;
  const core::SemanticsModel& get() const {
    return neural != nullptr ? static_cast<const core::SemanticsModel&>(*neural)
                             : keyword;
  }
};

void load_model(LoadedModel& model, const std::string& spec) {
  model.neural.reset();
  if (spec != "keyword") model.neural = nlp::SliceClassifier::load(spec);
}

std::unique_ptr<analysis::components::LibraryRegistry> load_registry(
    const std::string& path) {
  if (path.empty()) return nullptr;
  std::string error;
  std::optional<analysis::components::LibraryRegistry> loaded =
      analysis::components::LibraryRegistry::load(path, &error);
  if (!loaded.has_value())
    throw support::ParseError("registry " + path + ": " + error);
  return std::make_unique<analysis::components::LibraryRegistry>(
      std::move(*loaded));
}

std::string compact_report(const core::DeviceAnalysis& analysis) {
  return core::analysis_to_json(analysis, /*include_timings=*/false).dump();
}

int cmd_gen(const Args& args) {
  if (args.positional.size() != 1) return 2;
  const fsys::path out = args.positional[0];
  const std::string corpus = args.need("--corpus");
  const std::uint64_t seed = std::stoull(args.need("--seed"));
  std::vector<fw::DeviceProfile> profiles;
  if (corpus == "standard")
    profiles = fw::standard_corpus();
  else if (corpus == "sdk")
    profiles = fw::sdk_corpus();
  else
    throw support::ParseError("unknown corpus '" + corpus + "'");
  JsonArray dirs;
  for (fw::DeviceProfile& profile : profiles) {
    profile.seed = reseed(seed, profile);
    const fsys::path dir = out / support::format("device%02d", profile.id);
    fw::save_image(fw::synthesize(profile), dir);
    dirs.push_back(Json(dir.string()));
  }
  if (const std::string path = args.get("--registry-out"); !path.empty()) {
    const std::string error = core::build_sdk_registry().save(path);
    if (!error.empty()) throw support::ParseError(error);
  }
  std::printf("%s\n", Json(JsonObject{{"dirs", Json(std::move(dirs))}}).dump().c_str());
  return 0;
}

int cmd_reference(const Args& args) {
  LoadedModel model;
  load_model(model, args.need("--model"));
  const auto registry = load_registry(args.get("--registry"));
  core::Pipeline::Options options;
  options.registry = registry.get();
  const core::Pipeline pipeline(model.get(), options);

  std::vector<fw::FirmwareImage> images;
  std::vector<core::DeviceAnalysis> analyses;
  cloudsim::CloudNetwork network;
  for (const std::string& dir : args.positional) {
    images.push_back(fw::load_image(dir));
    analyses.push_back(pipeline.analyze(images.back()));
    network.enroll(images.back());
  }
  std::vector<cloudsim::Table2Row> rows;
  for (std::size_t i = 0; i < images.size(); ++i)
    if (!images[i].profile.script_based)
      rows.push_back(cloudsim::evaluate_device(analyses[i], images[i], network));
  const cloudsim::Table2Totals totals = cloudsim::total_rows(rows);

  std::string text =
      Json(JsonObject{
               {"model", Json(model.get().name())},
               {"messages", Json(totals.sum.identified_msgs)},
               {"identified_fields", Json(totals.sum.identified_fields)},
               {"confirmed_fields", Json(totals.sum.confirmed_fields)},
               {"accurate_semantics", Json(totals.sum.accurate_semantics)},
               {"field_accuracy", Json(totals.field_accuracy)},
               {"semantics_accuracy", Json(totals.semantics_accuracy)},
           })
          .dump() +
      "\n";
  for (std::size_t i = 0; i < images.size(); ++i)
    text += "{\"dir\":" + Json(args.positional[i]).dump() +
            ",\"report\":" + compact_report(analyses[i]) + "}\n";
  write_text(args.need("--out"), text);
  return 0;
}

/// Append a dead self-copy op to the entry block of `fn`: new bytes for the
/// function, no change to any value it computes.
void append_dead_op(ir::Program& program, ir::Function& fn,
                    std::uint64_t address) {
  std::optional<ir::VarNode> v;
  if (!fn.params().empty()) v = fn.params().front();
  for (const ir::PcodeOp* op : fn.ops_in_order()) {
    if (v.has_value()) break;
    if (op->output.has_value())
      v = *op->output;
    else if (!op->inputs.empty())
      v = op->inputs.front();
  }
  if (!v.has_value() || fn.blocks().empty()) return;
  ir::PcodeOp op;
  op.address = address;
  op.opcode = ir::OpCode::Copy;
  op.output = *v;
  op.inputs = program.operand_list({*v});
  fn.blocks().front().ops.push_back(op);
}

/// Write firmware update `version` of the image at `dir` in place: dead ops
/// appended to 1-2 local functions of its device-cloud program, picked by a
/// stream seeded from (workload seed, device, version). Each update applies
/// to the image's current bytes, so versions accumulate. The program file
/// is replaced atomically.
void write_update(const fsys::path& dir, std::uint64_t seed, int version) {
  fw::FirmwareImage image = fw::load_image(dir);
  ir::Program* program = nullptr;
  int index = 0;
  for (fw::FirmwareFile& f : image.files) {
    if (f.program == nullptr) continue;
    if (f.path == image.truth.device_cloud_executable) {
      program = f.program.get();
      break;
    }
    ++index;
  }
  if (program == nullptr)
    throw support::ParseError(dir.string() + ": no device-cloud program");
  const std::vector<ir::Function*> locals = program->local_functions();
  support::Rng rng(support::Hasher(0x7570646174657331ULL)
                       .u64(seed)
                       .u64(static_cast<std::uint64_t>(image.profile.id))
                       .u64(static_cast<std::uint64_t>(version))
                       .digest());
  const int victims = static_cast<int>(rng.uniform(1, 2));
  for (int k = 0; k < victims; ++k) {
    ir::Function* fn = locals[static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(locals.size()) - 1))];
    append_dead_op(*program, *fn,
                   0xFB00000000ULL + static_cast<std::uint64_t>(version) * 16 +
                       static_cast<std::uint64_t>(k));
  }
  const fsys::path file = dir / support::format("programs/%03d.json", index);
  const fsys::path tmp = file.string() + ".tmp";
  write_text(tmp, ir::program_to_json(*program).dump());
  fsys::rename(tmp, file);
}

/// Reads `<image-dir> <version>` lines; writes each update, then prints the
/// uncached reference report of the image's new bytes as one line.
int cmd_update_server(const Args& args) {
  const std::uint64_t seed = std::stoull(args.need("--seed"));
  const auto registry = load_registry(args.get("--registry"));
  const core::KeywordModel model;
  core::Pipeline::Options options;
  options.registry = registry.get();
  const core::Pipeline pipeline(model, options);
  std::string line;
  while (std::getline(std::cin, line)) {
    const std::vector<std::string> words = support::split(line, ' ');
    if (words.size() != 2) throw support::ParseError("bad update line: " + line);
    write_update(words[0], seed, std::stoi(words[1]));
    const core::DeviceAnalysis analysis =
        pipeline.analyze(fw::load_image(words[0]));
    std::printf("{\"dir\":%s,\"report\":%s}\n", Json(words[0]).dump().c_str(),
                compact_report(analysis).c_str());
    std::fflush(stdout);
  }
  return 0;
}

std::uint64_t dir_bytes(const fsys::path& dir) {
  std::uint64_t total = 0;
  for (const auto& entry : fsys::recursive_directory_iterator(dir))
    if (entry.is_regular_file()) total += entry.file_size();
  return total;
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

std::uint64_t counter(const support::metrics::Snapshot& s, const char* name) {
  for (const auto& c : s.counters)
    if (c.name == name) return c.value;
  return 0;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n == 0 ? 0.0 : n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

int cmd_trace(const Args& args) {
  const Json spec = Json::parse(read_text(args.need("--requests")));
  const fsys::path work = args.need("--work");
  const double seconds = std::stod(args.need("--seconds"));
  const int jobs = std::stoi(args.need("--jobs"));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(spec.find("seed")->as_number());
  const std::string model_spec = spec.find("model")->as_string();
  const bool model_per_request = spec.find("model_per_request")->as_bool();
  const bool pretty = spec.find("pretty")->as_bool();
  const bool use_cache = spec.find("cache")->as_bool();
  const bool corpus_runner = spec.find("corpus_runner")->as_bool();
  const std::size_t round =
      static_cast<std::size_t>(spec.find("round")->as_number());
  const auto registry = load_registry(spec.find("registry")->as_string());
  const JsonArray& requests = spec.find("requests")->as_array();

  Tracer tracer;
  LoadedModel model;
  double model_load_ms = 0.0;
  if (!model_per_request) {
    const auto start = Clock::now();
    load_model(model, model_spec);
    model_load_ms = ms_since(start);
  }
  std::unique_ptr<core::AnalysisCache> layered_cache, pipeline_cache;
  if (use_cache) {
    layered_cache = std::make_unique<core::AnalysisCache>(
        core::AnalysisCache::Options{.dir = (work / "cache-layered").string()});
    pipeline_cache = std::make_unique<core::AnalysisCache>(
        core::AnalysisCache::Options{.dir = (work / "cache-pipeline").string()});
    // The serve workload fills its cache during set-up; so do both here.
    for (const Json& dir : spec.find("warmup")->as_array()) {
      const fw::FirmwareImage image = fw::load_image(dir.as_string());
      Tracer scratch;
      (void)firmbench::analyze_layered(image, model.get(), registry.get(),
                                       layered_cache.get(), scratch);
      core::Pipeline::Options options;
      options.cache = pipeline_cache.get();
      options.registry = registry.get();
      (void)core::Pipeline(model.get(), options).analyze(image);
    }
  }
  // Work counts and cache statistics describe the program: they come from
  // the untraced Pipeline::analyze calls. The composed copy's own counts
  // only serve to notice when the copy no longer does the pipeline's work.
  const auto cache_stats = [](const std::unique_ptr<core::AnalysisCache>& c) {
    return c != nullptr ? c->stats() : core::AnalysisCache::Stats{};
  };
  const core::AnalysisCache::Stats cache_before = cache_stats(pipeline_cache);
  const core::AnalysisCache::Stats copy_cache_before = cache_stats(layered_cache);
  const char* const kCounts[] = {"identify.programs_analyzed",
                                 "valueflow.solves", "pointsto.solves",
                                 "taint.steps", "slices.emitted"};

  std::map<std::string, double> self_total;
  std::map<std::string, double> count_total, copy_count_total;
  double load_bytes = 0, load_ms = 0, traced_analyze_ms = 0,
         untraced_analyze_ms = 0, unattributed_ms = 0, layer_self_ms = 0;
  std::size_t classify_calls = 0, distinct_slices = 0, mismatches = 0,
              done = 0, emitted_bytes = 0;
  const auto start = Clock::now();
  for (std::size_t r = 0; r < requests.size(); ++r) {
    if (r > 0 && r % round == 0 && ms_since(start) >= seconds * 1e3) break;
    const Json& request = requests[r];
    if (const Json* version = request.find("update"))
      write_update(request.find("dirs")->as_array()[0].as_string(), seed,
                   static_cast<int>(version->as_number()));
    tracer.clear();
    const support::metrics::Snapshot before = support::metrics::snapshot();
    std::vector<fw::FirmwareImage> images;
    std::vector<core::DeviceAnalysis> analyses;
    std::size_t request_classify = 0, request_distinct = 0;
    {
      const Span root(tracer, "request");
      if (model_per_request) {
        const Span span(tracer, "nlp.model_load");
        load_model(model, model_spec);
      }
      firmbench::TimedModel timed(model.get(), tracer);
      for (const Json& dir : request.find("dirs")->as_array()) {
        const Span span(tracer, "firmware.load_image");
        images.push_back(fw::load_image(dir.as_string()));
      }
      for (const fw::FirmwareImage& image : images) {
        const Span span(tracer, "trace.analyze");
        analyses.push_back(firmbench::analyze_layered(
            image, timed, registry.get(), layered_cache.get(), tracer));
      }
      for (const core::DeviceAnalysis& analysis : analyses) {
        const Span span(tracer, "core.report_emit");
        emitted_bytes += core::analysis_to_json(analysis).dump(pretty).size();
      }
      request_classify = timed.calls();
      request_distinct = timed.distinct();
    }
    const support::metrics::Snapshot after = support::metrics::snapshot();
    for (const char* name : kCounts)
      copy_count_total[name] +=
          static_cast<double>(counter(after, name) - counter(before, name));
    classify_calls += request_classify;
    distinct_slices += request_distinct;

    const std::map<std::string, double> self = tracer.self_ms();
    const std::map<std::string, double> total = tracer.total_ms();
    for (const auto& [name, ms] : self) {
      self_total[name] += ms;
      if (name == "request" || name == "trace.analyze")
        unattributed_ms += ms;
      else if (name != "firmware.load_image" && name != "core.report_emit" &&
               name != "nlp.model_load")
        layer_self_ms += ms;
    }
    if (total.count("trace.analyze") != 0)
      traced_analyze_ms += total.at("trace.analyze");
    if (self.count("nlp.model_load") != 0)
      model_load_ms += self.at("nlp.model_load");
    load_ms += self.count("firmware.load_image") != 0
                   ? self.at("firmware.load_image")
                   : 0.0;
    for (const Json& dir : request.find("dirs")->as_array())
      load_bytes += static_cast<double>(dir_bytes(dir.as_string()));

    // Untraced Pipeline::analyze on the same images: the fidelity reference.
    core::Pipeline::Options options;
    options.cache = pipeline_cache.get();
    options.registry = registry.get();
    const core::Pipeline pipeline(model.get(), options);
    const support::metrics::Snapshot untraced_before = support::metrics::snapshot();
    std::vector<core::DeviceAnalysis> references;
    for (const fw::FirmwareImage& image : images) {
      const auto t0 = Clock::now();
      references.push_back(pipeline.analyze(image));
      untraced_analyze_ms += ms_since(t0);
    }
    const support::metrics::Snapshot untraced_after = support::metrics::snapshot();
    for (const char* name : kCounts)
      count_total[name] += static_cast<double>(counter(untraced_after, name) -
                                               counter(untraced_before, name));
    for (std::size_t i = 0; i < images.size(); ++i)
      if (compact_report(references[i]) != compact_report(analyses[i]))
        ++mismatches;
    ++done;
  }

  const double n = static_cast<double>(done);
  JsonObject metrics;
  const auto put = [&](const std::string& name, double value) {
    metrics.emplace_back(name, Json(value));
  };
  const auto layer = [&](const std::string& span) {
    const auto it = self_total.find(span);
    return it == self_total.end() ? 0.0 : it->second / n;
  };
  put("firmware.load_image_ms", layer("firmware.load_image"));
  put("firmware.load_mb_per_s",
      load_ms > 0 ? (load_bytes / 1e6) / (load_ms / 1e3) : 0.0);
  put("analysis.components_ms", layer("analysis.components"));
  put("core.exec_identifier_ms", layer("core.exec_identifier"));
  put("analysis.pointsto_ms", layer("analysis.pointsto"));
  put("analysis.valueflow_ms", layer("analysis.valueflow"));
  put("analysis.call_graph_ms", layer("analysis.call_graph"));
  put("core.taint_ms", layer("core.taint"));
  put("core.semantics_classify_ms", layer("core.semantics_classify"));
  put("core.reconstructor_self_ms", layer("core.reconstructor"));
  put("core.form_check_ms", layer("core.form_check"));
  put("core.report_emit_ms", layer("core.report_emit"));
  put("core.analysis_cache_ms", layer("core.analysis_cache"));
  put("nlp.model_load_ms",
      model_per_request ? model_load_ms / n
                        : (model_spec == "keyword" ? 0.0 : model_load_ms));
  for (const auto& [name, total] : count_total) put(name, total / n);
  put("semantics.classify_calls", static_cast<double>(classify_calls) / n);
  put("semantics.distinct_slice_ratio",
      classify_calls == 0 ? 0.0
                          : static_cast<double>(distinct_slices) /
                                static_cast<double>(classify_calls));
  if (use_cache) {
    const core::AnalysisCache::Stats s = pipeline_cache->stats();
    const auto ratio = [](std::uint64_t hits, std::uint64_t misses) {
      return hits + misses == 0 ? 0.0
                                : static_cast<double>(hits) /
                                      static_cast<double>(hits + misses);
    };
    put("core.analysis_cache.fn_hit_ratio",
        ratio(s.fn_hits - cache_before.fn_hits,
              s.fn_misses - cache_before.fn_misses));
    put("core.analysis_cache.program_hit_ratio",
        ratio(s.program_hits - cache_before.program_hits,
              s.program_misses - cache_before.program_misses));
    put("core.analysis_cache.stores",
        static_cast<double>(s.stores - cache_before.stores) / n);
    put("core.analysis_cache.disk_mb",
        static_cast<double>(dir_bytes(work / "cache-pipeline")) / 1e6);
  } else {
    put("core.analysis_cache.fn_hit_ratio", 0.0);
    put("core.analysis_cache.program_hit_ratio", 0.0);
    put("core.analysis_cache.stores", 0.0);
    put("core.analysis_cache.disk_mb", 0.0);
  }
  // Where the copy's work differs from the pipeline's, its layer times
  // describe the copy, not the program.
  JsonArray diverged;
  for (const auto& [name, total] : count_total)
    if (copy_count_total[name] != total) diverged.push_back(Json(name));
  const auto cache_work = [](const core::AnalysisCache::Stats& s,
                             const core::AnalysisCache::Stats& base) {
    return std::vector<std::uint64_t>{
        s.ident_hits - base.ident_hits,     s.ident_misses - base.ident_misses,
        s.program_hits - base.program_hits, s.program_misses - base.program_misses,
        s.fn_hits - base.fn_hits,           s.fn_misses - base.fn_misses,
        s.stores - base.stores};
  };
  if (cache_work(cache_stats(pipeline_cache), cache_before) !=
      cache_work(cache_stats(layered_cache), copy_cache_before))
    diverged.push_back(Json("core.analysis_cache"));

  double cpu_over_wall = 0.0, efficiency = 0.0;
  if (corpus_runner) {
    // jobs 1 against jobs J over the first request's images, untraced.
    std::vector<fw::FirmwareImage> images;
    for (const Json& dir : requests[0].find("dirs")->as_array())
      images.push_back(fw::load_image(dir.as_string()));
    const core::Pipeline pipeline(model.get());
    std::vector<double> wall1, wallj, ratio;
    for (int rep = 0; rep < 3; ++rep) {
      for (const int j : {1, jobs}) {
        const double cpu0 = process_cpu_s();
        const auto t0 = Clock::now();
        core::CorpusRunner::Options options;
        options.jobs = j;
        const core::CorpusRunner runner(pipeline, options);
        const core::CorpusResult result = runner.run(images);
        const double wall_ms = ms_since(t0);
        if (!result.failures.empty()) ++mismatches;
        if (j == 1) {
          wall1.push_back(wall_ms);
        } else {
          wallj.push_back(wall_ms);
          ratio.push_back((process_cpu_s() - cpu0) * 1e3 / wall_ms);
        }
      }
    }
    cpu_over_wall = median(ratio);
    // --jobs J runs J workers plus the helping caller: J + 1 threads.
    efficiency = median(wall1) / median(wallj) / static_cast<double>(jobs + 1);
  }
  put("core.corpus_runner.cpu_over_wall", cpu_over_wall);
  put("core.corpus_runner.parallel_efficiency", efficiency);
  put("trace.unattributed_ms", unattributed_ms / n);
  put("trace.overhead_pct",
      untraced_analyze_ms > 0
          ? 100.0 * (traced_analyze_ms - untraced_analyze_ms) /
                untraced_analyze_ms
          : 0.0);

  const Json out(JsonObject{
      {"requests", Json(static_cast<std::int64_t>(done))},
      {"report_mismatches", Json(static_cast<std::int64_t>(mismatches))},
      {"layer_self_ms", Json(layer_self_ms)},
      {"emitted_bytes", Json(static_cast<std::int64_t>(emitted_bytes))},
      {"untraced_analyze_ms", Json(untraced_analyze_ms)},
      {"copy_divergence", Json(std::move(diverged))},
      {"metrics", Json(std::move(metrics))},
  });
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  support::set_log_level(support::LogLevel::Warn);
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: firmbench_helper gen|reference|update-server|trace ...\n");
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    const Args args = parse_args(argc, argv);
    int rc = 2;
    if (cmd == "gen") rc = cmd_gen(args);
    else if (cmd == "reference") rc = cmd_reference(args);
    else if (cmd == "update-server") rc = cmd_update_server(args);
    else if (cmd == "trace") rc = cmd_trace(args);
    if (rc == 2) std::fprintf(stderr, "firmbench_helper: bad usage of '%s'\n", cmd.c_str());
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "firmbench_helper %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
}

// Golden schedules for BF and RUN: one FNV-1a digest per seeded task set
// of the metrics row, the schedule itself (BF's slot trace, RUN's
// service-segment log) and the JSONL event stream, all from a single
// run_until call.  The table was recorded before BF's planner and RUN's
// event walk were rewritten for cost, and pins every byte those rewrites
// must keep: a changed tie, layout, processor assignment or event order
// moves a digest.
//
// The corpus covers M in {1, 2, 3, 4, 8, 16}; loads from 0.3 to 1.0 of
// M, plus overloads above M for BF (which admits them and surfaces the
// shortfall as boundary misses); light, heavy and weight-mixed tasks
// with weight-1 tasks among them; periods that divide 720720 and
// pairwise-coprime periods (which drive RUN's tick grid towards its
// cap, so some of its admissions are refused).  Inputs come from a
// local splitmix64 stream, so the corpus never moves with util::Rng.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <ostream>
#include <streambuf>
#include <vector>

#include "engine/simulator.h"
#include "obs/bus.h"
#include "obs/jsonl_sink.h"
#include "sim/bf_sim.h"
#include "sim/run_sim.h"

namespace pfair {
namespace {

struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void byte(unsigned char c) {
    h ^= c;
    h *= 1099511628211ull;
  }
  void add(std::int64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(static_cast<std::uint64_t>(v) >> (8 * i)));
  }
  void add(double v) {
    std::int64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
};

/// Hashes what a JsonlSink writes instead of keeping it.
class FnvStreamBuf : public std::streambuf {
 public:
  Fnv fnv;

 protected:
  int_type overflow(int_type c) override {
    if (c != traits_type::eof()) fnv.byte(static_cast<unsigned char>(c));
    return c;
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    for (std::streamsize i = 0; i < n; ++i) fnv.byte(static_cast<unsigned char>(s[i]));
    return n;
  }
};

struct SplitMix {
  std::uint64_t s;
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::int64_t below(std::int64_t n) { return static_cast<std::int64_t>(next() % static_cast<std::uint64_t>(n)); }
};

enum class Profile : std::uint8_t { kLight, kHeavy, kMixed };

constexpr std::int64_t kDivisorPeriods[] = {2,  3,  4,  5,  6,  7,  8,  9,  10, 12, 14, 15,
                                            16, 18, 20, 21, 24, 28, 30, 36, 40, 42, 48, 60};
constexpr std::int64_t kCoprimePeriods[] = {5, 7, 9, 11, 13, 16, 17, 19, 23, 25, 29, 31};
constexpr int kProcessors[] = {1, 2, 3, 4, 8, 16};
constexpr double kLoads[] = {0.3, 0.6, 0.85, 1.0};
constexpr double kOverloads[] = {1.15, 1.4};  // BF only
constexpr Time kHorizon = 360;

/// (execution, period) pairs whose total weight stays within load * M,
/// in units of 1/1000 of a processor (floor per task, so a load of 1.0
/// can still refuse a task at RUN's exact check).
std::vector<std::pair<std::int64_t, std::int64_t>> make_set(int m, double load, Profile profile,
                                                            bool coprime, std::uint64_t seed) {
  SplitMix rng{seed};
  const std::int64_t* pool = coprime ? kCoprimePeriods : kDivisorPeriods;
  const std::int64_t pool_size =
      coprime ? static_cast<std::int64_t>(std::size(kCoprimePeriods))
              : static_cast<std::int64_t>(std::size(kDivisorPeriods));
  const auto cap = static_cast<std::int64_t>(load * 1000.0 * m);
  std::vector<std::pair<std::int64_t, std::int64_t>> out;
  std::int64_t total = 0;
  for (int misses = 0; misses < 24;) {
    const std::int64_t p = pool[rng.below(pool_size)];
    std::int64_t e = 1;
    switch (profile) {
      case Profile::kLight: e = 1 + rng.below(std::max<std::int64_t>(1, p / 5)); break;
      case Profile::kHeavy: e = (p + 1) / 2 + rng.below(p - (p + 1) / 2 + 1); break;
      case Profile::kMixed: e = rng.below(4) == 0 ? p : 1 + rng.below(p); break;
    }
    const std::int64_t w = e * 1000 / p;
    if (total + w > cap) {
      ++misses;
      continue;
    }
    total += w;
    out.emplace_back(e, p);
  }
  return out;
}

struct GoldenCase {
  bool run;  ///< RUN, else BF
  int m;
  double load;
  Profile profile;
  bool coprime;
};

std::vector<GoldenCase> corpus() {
  std::vector<GoldenCase> out;
  for (const bool run : {false, true})
    for (const int m : kProcessors)
      for (const bool coprime : {false, true})
        for (const Profile profile : {Profile::kLight, Profile::kHeavy, Profile::kMixed}) {
          for (const double load : kLoads) out.push_back({run, m, load, profile, coprime});
          if (!run)
            for (const double load : kOverloads) out.push_back({run, m, load, profile, coprime});
        }
  return out;
}

void add_row(Fnv& d, const engine::Metrics& r) {
  for (const std::uint64_t v :
       {r.tasks_admitted, r.tasks_rejected, r.slots, r.busy_quanta, r.idle_quanta,
        r.jobs_released, r.jobs_completed, r.deadline_misses, r.preemptions, r.migrations,
        r.context_switches, r.scheduling_points, r.scheduling_points})
    d.add(static_cast<std::int64_t>(v));
  d.add(static_cast<std::int64_t>(r.first_miss_time));
  d.add(static_cast<std::int64_t>(r.response_time.count()));
  d.add(r.response_time.mean());
  d.add(r.response_time.min());
  d.add(r.response_time.max());
}

/// Digest of one case: metrics row, schedule, then the event stream.
std::uint64_t digest(const GoldenCase& c, std::uint64_t seed) {
  const auto tasks = make_set(c.m, c.load, c.profile, c.coprime, seed);
  FnvStreamBuf events;
  std::ostream os(&events);
  obs::JsonlSink sink(os);
  obs::EventBus bus;
  bus.add_sink(&sink);
  Fnv d;
  if (c.run) {
    RunSimulator sim(RunConfig{c.m, true});
    sim.attach_observer(&bus);
    for (const auto& [e, p] : tasks) sim.admit(engine::task_spec(e, p));
    sim.run_until(kHorizon);
    bus.flush();
    add_row(d, sim.metrics());
    for (const RunSegment& s : sim.segments()) {
      d.add(static_cast<std::int64_t>(s.task));
      d.add(s.start);
      d.add(s.end);
    }
  } else {
    BfSimulator sim(TaskSet{}, BfConfig{c.m, true});
    sim.attach_observer(&bus);
    for (const auto& [e, p] : tasks) sim.admit(engine::task_spec(e, p));
    sim.run_until(kHorizon);
    bus.flush();
    add_row(d, sim.metrics());
    for (std::size_t t = 0; t < sim.trace().size(); ++t)
      for (const TaskId id : sim.trace()[t].proc_to_task) d.add(static_cast<std::int64_t>(id));
  }
  d.add(static_cast<std::int64_t>(events.fnv.h));
  return d.h;
}

std::uint64_t case_seed(std::size_t i) { return 0x901de5ull * 1000003ull + i; }

// Recorded from the simulators as they were before the cost rewrite, in
// corpus() order: BF's 216 cases, then RUN's 144.
constexpr std::uint64_t kGolden[] = {
    0x63d22190e0a4c5e4ull, 0x488ad8f14193d24eull, 0x415bbddb7fa1087full,
    0xfc1d5cbed0560087ull, 0x77179f5a0be67698ull, 0xce5dec50a504d539ull,
    0x8630750e34c7acf1ull, 0x2315d07f000ddf21ull, 0xa43282611cb84257ull,
    0xc959e4deb2383d67ull, 0x4cec6d02b08e26b4ull, 0xb491fd8cd37bd1bfull,
    0x2425f2fd73ce68a9ull, 0x87e63e6852d73c29ull, 0xe92ffe31824db7b9ull,
    0xb491fd8cd37bd1bfull, 0xbddfe0fcd5a508c4ull, 0xc8d23264ff42ae75ull,
    0xdbd331ef84677eb5ull, 0x2b55071e4a436b0cull, 0xfebc16803b106a57ull,
    0xd33b393e2134eb84ull, 0x139fd55a9e96846eull, 0x8e0d92fd984bddd3ull,
    0x8630750e34c7acf1ull, 0x5d386955fb6c5e90ull, 0x1a91d9959fed2a56ull,
    0x6cd8dd137b734b0cull, 0xdec2954a3f2a717dull, 0x1147950bc8f33d6cull,
    0x216e6cea38ddfe4cull, 0x3d7c20a800974947ull, 0xb9429abab2bb5206ull,
    0x3889c9e41e64bf2bull, 0x3d1a06a5e9785f60ull, 0x9fc727fc71bc0718ull,
    0x26f61ba05348238eull, 0x2afea9adbf2e2938ull, 0x2d86c2f51d341a20ull,
    0xf8c3c2dc8b51b880ull, 0x6b7b9a90031ecfa0ull, 0x1dabff3659f9a0ceull,
    0xc244b66d1477ee0bull, 0x6b4483319635230cull, 0x75b13bb25a0e9ba9ull,
    0x8e6419f42f892d1eull, 0xe566a0cc0152da15ull, 0x35bcbdf9b1f4c3caull,
    0x0a8cba97a7842ffdull, 0xbfe8e31ca7d9ff36ull, 0xb38021a1705a7fb1ull,
    0xadea94d1cdbef862ull, 0x3c6ea203b9f6b3daull, 0xc335e2061f6a2f2aull,
    0x5eb5ffbbc51d95faull, 0xb77140d68d4a803dull, 0x30e71700f042f970ull,
    0xd45b768c15e41127ull, 0xb8a2cc057b261c74ull, 0xca72547421013756ull,
    0x7df532847aee3638ull, 0x80b3fa74a5fa4b21ull, 0x0e5f3577adf2ceb7ull,
    0xfecce258c35cf38dull, 0x619fab6ee37062beull, 0x6913c74390c9a38full,
    0x271913eebec0988aull, 0xc63ac44f9f22453eull, 0xe9a69b2225872a7bull,
    0x038d119e4c12c4aaull, 0xf3cfdc1dfca9cf09ull, 0xa5ed465b4b22a5f7ull,
    0xf9275a01ccfee64bull, 0x56021e568e21ddc3ull, 0xde1b17ab001057fcull,
    0x0ad7d30b86336486ull, 0xf01b0bbf15fe9983ull, 0x13e0cdf6e083d2faull,
    0x6a41dec7f8ac9110ull, 0x878bdf677a522b71ull, 0x6effe02e7f348d78ull,
    0x80103db5ad912bcdull, 0x9b4d2fd19e05d76eull, 0x43ef165591e10c63ull,
    0x569936385f21f003ull, 0xd1baf98a80924bdeull, 0x454ea473032f32afull,
    0x7c5e3be0c900d23aull, 0x4c37e59ee2b4dc78ull, 0x67c23c4c18f37debull,
    0xf52b3712f30dd420ull, 0x71e88abfffd18d10ull, 0x1dced68c721cb516ull,
    0x2712ec368267d365ull, 0xbd33ed93700d9c37ull, 0x5a6182b16eba7270ull,
    0x63751d4507113f2aull, 0xdf306c82f18c66d0ull, 0x501085689b45598full,
    0x45673edfd96563bfull, 0xc752927992be97e7ull, 0x3b0fcadefc4feda3ull,
    0x0f0c186df138d778ull, 0x12a0f26432187c48ull, 0xdfa1edb3acabc500ull,
    0x4e8159f2c82f3329ull, 0x40b57fae243d67a3ull, 0x155f779339046736ull,
    0x3b9fb867df973264ull, 0x01e0408bf3be0ac2ull, 0x33c3d07d54d4e7aeull,
    0x29e7616f399208b9ull, 0x2368ef12ca01ed47ull, 0x764296eaec19176full,
    0x3def3b52468daf3full, 0x7a1e19f05c4d6503ull, 0x535b6c44603b1c76ull,
    0x40df9755aafe12a1ull, 0x4cba75f116b781b8ull, 0xd22acc68d2877399ull,
    0xfa87f2e33021c3a0ull, 0x1ebb5c5fed355debull, 0x0db98930bb6991dcull,
    0x3159e5d1b44cb97full, 0x006110ff5beb6877ull, 0x83e7189385b47268ull,
    0xf506e361bedca8c4ull, 0xfa6f1d28fbf29d1cull, 0xdf362b318babca5bull,
    0xd3d70a7e2ffc9abcull, 0x08a4728fc908f5b9ull, 0x9f17fdcd3058ea37ull,
    0xccfca5bfa5984330ull, 0x0eae9b4ef43c2468ull, 0xd50cd74052791b18ull,
    0xd54652eb487da4ccull, 0xca69e8fb7f19c496ull, 0x96b2b5cee76d4786ull,
    0x424d75bb24a2e6abull, 0xdcb0989aa704f6eeull, 0x67c58aa27ded0fe7ull,
    0x9f7282183e5e8c83ull, 0xe78357d572353cafull, 0xbe36996115f5c976ull,
    0xa8ce2abd9326f3b6ull, 0xeb1699d40f497254ull, 0x36567a6a189c3836ull,
    0x57cf602b06ceb8f0ull, 0xfe20d144ac07a9cdull, 0x6e244619d389de89ull,
    0x6e72f9f4c3fc0a7cull, 0xeb223d69b3200758ull, 0x36454d6fe61ef845ull,
    0x17430c468c70b3dcull, 0x64c51238068f6250ull, 0xb5291068acc002dcull,
    0x6b5e5979596b77c4ull, 0xca768f8d0f50307eull, 0xe2f7a966af5c4c25ull,
    0x8bd0f88e6cc4d2e9ull, 0x914f6ed7382bc858ull, 0x9807e0da65a6093full,
    0xf31d9e6aa533f88aull, 0x48087167fdee0df0ull, 0x68371972249cb95aull,
    0x90fd2f3198572bd3ull, 0x9ce6380793ab7c28ull, 0x08e7b4f6e3217f34ull,
    0x38124e1b959a566dull, 0xf5837553e0c7d82full, 0xff0e418a6d4fd881ull,
    0xac1948f97c8d645full, 0xf1dedfa13f5a2125ull, 0xd833a9066bc34c4cull,
    0xabc856be906de9d5ull, 0x02bca368aae2822full, 0xa24d0c7115c8b8c4ull,
    0x32fc2409c690701dull, 0x36c946210c32a85aull, 0x422f03e8aff00d29ull,
    0xc610230b0c9f64abull, 0xfaab9a54023dc74eull, 0x1a69f915f59ef883ull,
    0x5107c71fa057f80cull, 0x12e54357deb51d74ull, 0xb03cf3ab0b8048f6ull,
    0x85d115e078c19c19ull, 0x31e708606014a119ull, 0x1ff9e952ac8f6566ull,
    0x4ed524542f263fa4ull, 0xc4a88d346bc3f9fbull, 0xd9b547cf5e6ca632ull,
    0x70c99189fb800b38ull, 0xc0c4a2a86a4c8840ull, 0xf4a6d4b6444efb06ull,
    0xc37a31a4e514ecd0ull, 0x81f07b56408953a5ull, 0xa8241c94c97559e4ull,
    0xc246c0fe2f77ca39ull, 0x821d5d0f8c4593aeull, 0x141516482081bbfbull,
    0x636bbbd728b70744ull, 0xb121321c541a71e7ull, 0x6fdc0e492dc640a7ull,
    0x200b427ef4cf345full, 0x621d6d500d034d07ull, 0x2739fc70c9a14272ull,
    0x213853386e839131ull, 0xb301d4370354b5afull, 0x1bcae65ff3d22514ull,
    0xb973194a2e2eeb50ull, 0xa36d0a69133e402full, 0x6951ff5c87083c4cull,
    0xa2af07946e2e7bb9ull, 0x3f723a0163847e1full, 0x31890c2f31176d8eull,
    0xddf98df020e641deull, 0xade59047c4ffe9d2ull, 0x778b9573553a3f1dull,
    0x18637a288d51787dull, 0x9acf124dc22ddad1ull, 0x7b090730345dc772ull,
    0xaecc59d98387e918ull, 0x642705b0e87e8ad6ull, 0xdd623d92718d35f7ull,
    0x45ccd9634ff68fffull, 0x732523265b67cdf9ull, 0xcb5fb9c336196daaull,
    0x741ed2f5b5267833ull, 0x500715fbc97be668ull, 0x37eb2caba1ae2f6cull,
    0xf60aaf2f6a99ef18ull, 0x9acf124dc22ddad1ull, 0xe3e13f5ca4867146ull,
    0x759f2ff15676098aull, 0xe351687c7f9ff7f7ull, 0x5472982b831a492eull,
    0x1afe3b1ee205527aull, 0xeb1659371a77bab1ull, 0x954ed5a65aee0704ull,
    0x7e8b1e5cf155bfadull, 0xacc8c16d4f694a72ull, 0x7c40e5d1b557e914ull,
    0x77200ca3d24894b7ull, 0x90567dac4fc0ba8bull, 0x5dcd440b5ebf10b6ull,
    0x0f6927bee652134cull, 0x83fc9f018fc178e7ull, 0x509af226bf61cb18ull,
    0xd04825c966d9c117ull, 0x83fa34247358c707ull, 0xb2571c0aa4beda5dull,
    0x6610bdd83e66d0c5ull, 0x5f73a94bf6dba03full, 0x3d36f7fc5e847ec3ull,
    0x095e73befe41ec97ull, 0x1a4be47e55428130ull, 0x1f08ddd17d9bf930ull,
    0x2f6d152fb7487c43ull, 0x9ed1bacffdf821f6ull, 0x2c72b0863f84af6dull,
    0xc270dd4b3363a6c2ull, 0x6ca89943da5b72f5ull, 0x03e090bcc967b8ffull,
    0x899c45f0acae6f12ull, 0xe8e6485fc0fa7233ull, 0x8e44763de729000dull,
    0x8263b1217c350b8aull, 0xd5352c9c1cabb53eull, 0x0a6cdfbb5d9878aeull,
    0x0c59f0c7691d98d1ull, 0xc430bbaa4e298858ull, 0x94295b69c1262f05ull,
    0xe1c5ba138ff17aa5ull, 0x73b7311aad68ca47ull, 0x28e20bf8e00a47a5ull,
    0xd0e7fd67b6c82fb7ull, 0xee7ea5725f89c97aull, 0x68785627d96924c0ull,
    0x9ca1bc26d41e37bbull, 0xd7a6adedf99b2e36ull, 0xe8c6d2ec252891a9ull,
    0x52b720ba73858d3cull, 0x4cf2eac47805dcd4ull, 0x30bf20dd7eec5bcaull,
    0x2f8bcbcb6aaed118ull, 0x3f5000da14ee63baull, 0x12da8e340c91120cull,
    0x9f296232a26611b4ull, 0xdc4167e6ff9461f4ull, 0x90a86aa76c566c7bull,
    0xf2b2db75507f4bb2ull, 0x380e89f564dcae62ull, 0x678d0c221f2973f6ull,
    0xb1af116b9302b02full, 0xa20395c93d655e19ull, 0x069fb7f23e7aac8eull,
    0xf9d11d0d6fa5996eull, 0x14391e6dac14f8f9ull, 0x2b3eb7af8ac13c4cull,
    0x4c60e61143625ee0ull, 0x683c0157b5ab10e6ull, 0x7d756033ab2b633bull,
    0x6f73c8cee5e461c0ull, 0x18b1af5cc7091136ull, 0x2910718e394d38f7ull,
    0xc7b36813c26c76fbull, 0x0878c692cffc25dcull, 0x84db2aab3a003d3bull,
    0xeb641adc7870c207ull, 0x08cef70a8dc45836ull, 0xa4bb949d2fbb36f4ull,
    0xc8f8eb58506b7276ull, 0xe4a238fcfb4bc5a9ull, 0x77c35e3c0d2bef88ull,
    0xb51db836b75eda5eull, 0x5e9527f39c0c9925ull, 0xdf90ed2799419bdbull,
    0x22e3feda01a2ae18ull, 0x261cfb03a0698228ull, 0x5306f862e8bdbbf7ull,
    0xfeed9f84747869c0ull, 0xa3bbd9cbc8ad317aull, 0xdbe859dc517665d2ull,
    0x307c88dbac34c016ull, 0xfb7873a30ff6d1deull, 0xef360de3176af7a2ull,
    0xf66ae0730714d85full, 0x2c4a2e1ee08689a5ull, 0x7cec8b11475d7654ull,
    0x681c33c844357f18ull, 0x5b37e0cd9307f76aull, 0xa9cdd25c134b8c44ull,
    0xc3099765aa876d89ull, 0x4b5d166613805c28ull, 0x72e8ec98545792f5ull,
    0xe8d76964af4ff7d3ull, 0xe87c240a478c7a89ull, 0x334f447aaaa15683ull,
    0x3df90e8b72df8e5bull, 0x247d2b58e8e4a075ull, 0x83345e393c48d511ull,
    0x501f7d4700dc5afdull, 0x8e40d1bb9cc148f4ull, 0x71138daed81ff877ull,
    0x5a0bba4be6876380ull, 0xb9706c3f884a3075ull, 0x4c258dcecf7daa05ull,
    0x25d18bab441610efull, 0xdc9c1042470879edull, 0x6a73b9e8efef5d98ull,
    0xc88237cd8b10ac96ull, 0xe767e4089f03a3edull, 0x75f73d6e841d2412ull,
    0xeea5804d8a8dd784ull, 0x288ae4daa11a49c4ull, 0xf70faaf784b1bcb3ull,
    0x640a5f989cf6afe7ull, 0x2f242712ecc0ed14ull, 0x7ca3d02b756d1088ull,
};

TEST(RosterGolden, BfAndRunSchedulesMatchTheRecordedTable) {
  const std::vector<GoldenCase> cases = corpus();
  ASSERT_EQ(cases.size(), std::size(kGolden));
  std::size_t bad = 0;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const GoldenCase& c = cases[i];
    const std::uint64_t got = digest(c, case_seed(i));
    if (got == kGolden[i]) continue;
    ++bad;
    ADD_FAILURE() << "case " << i << " (" << (c.run ? "run" : "bf") << ", m=" << c.m
                  << ", load=" << c.load << ", profile=" << static_cast<int>(c.profile)
                  << ", coprime=" << c.coprime << "): digest 0x" << std::hex << got
                  << " != recorded 0x" << kGolden[i];
  }
  EXPECT_EQ(bad, 0u);
}

/// The corpus reaches what it claims to: BF overload misses, RUN
/// refusals, and ordinary miss-free sets for both.
TEST(RosterGolden, CorpusReachesOverloadAndRefusals) {
  std::uint64_t bf_misses = 0, run_rejects = 0, run_misses = 0;
  const std::vector<GoldenCase> cases = corpus();
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const GoldenCase& c = cases[i];
    const auto tasks = make_set(c.m, c.load, c.profile, c.coprime, case_seed(i));
    if (c.run) {
      RunSimulator sim(RunConfig{c.m, false});
      for (const auto& [e, p] : tasks) sim.admit(engine::task_spec(e, p));
      sim.run_until(kHorizon);
      run_rejects += sim.metrics().tasks_rejected;
      run_misses += sim.metrics().deadline_misses;
    } else {
      BfSimulator sim(TaskSet{}, BfConfig{c.m, false});
      for (const auto& [e, p] : tasks) sim.admit(engine::task_spec(e, p));
      sim.run_until(kHorizon);
      if (c.load <= 1.0) {
        EXPECT_EQ(sim.metrics().deadline_misses, 0u) << "case " << i;
      }
      bf_misses += sim.metrics().deadline_misses;
    }
  }
  EXPECT_GT(bf_misses, 0u);
  EXPECT_GT(run_rejects, 0u);
  EXPECT_EQ(run_misses, 0u);
}

}  // namespace
}  // namespace pfair

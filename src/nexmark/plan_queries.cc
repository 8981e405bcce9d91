#include "src/nexmark/plan_queries.h"

#include "src/nexmark/udfs.h"

namespace impeller {
namespace nexmark {

namespace {

plan::UdfRegistry MakeNexmarkUdfRegistry() {
  plan::UdfRegistry reg;
  reg.RegisterPredicate("non_empty", NonEmptyValue);
  reg.RegisterPredicate("bid_on_sampled_auction", BidOnSampledAuction);
  reg.RegisterPredicate("auction_in_category10", AuctionInCategory10);
  reg.RegisterPredicate("person_in_or_id_ca", PersonInOrIdCa);

  reg.RegisterMap("usd_to_eur", ConvertUsdToEur);
  reg.RegisterMap("pack_q5_window_count", PackQ5WindowCount);

  reg.RegisterKey("auction_seller", AuctionSellerKey);
  reg.RegisterKey("auction_id", AuctionIdKey);
  reg.RegisterKey("person_id", PersonIdKey);
  reg.RegisterKey("bid_auction", BidAuctionKey);
  reg.RegisterKey("joined_row_state", JoinedRowStateKey);
  reg.RegisterKey("win_category", WinCategoryKey);
  reg.RegisterKey("win_seller", WinSellerKey);
  reg.RegisterKey("win_auction", WinAuctionKey);
  reg.RegisterKey("q5_window_start", Q5WindowStartKey);
  reg.RegisterKey("window_start", WindowStartKey);
  reg.RegisterKey("record_key", RecordKey);

  reg.RegisterJoin("auction_x_person", JoinAuctionWithPerson);
  reg.RegisterJoin("bid_x_auction", JoinBidWithAuction);
  reg.RegisterJoin("person_x_auction", JoinPersonWithAuction);

  reg.RegisterAggregate("count", CountAgg());
  reg.RegisterAggregate("max_win", MaxWinAgg());
  reg.RegisterAggregate("avg_price", AvgPriceAgg());
  reg.RegisterAggregate("last10_wins", Last10WinsAgg());
  reg.RegisterAggregate("hottest_auction", HottestAuctionAgg());
  reg.RegisterAggregate("max_bid", MaxBidAgg());
  reg.RegisterAggregate("max_of_window_max", MaxOfWindowMaxAgg());
  return reg;
}

using plan::PlanBuilder;

PlanBuilder MakePlanBuilder(int number, const NexmarkQueryOptions& opt) {
  return PlanBuilder("q" + std::to_string(number), opt.tasks_per_stage);
}

Result<plan::LogicalPlan> PlanQ1(const NexmarkQueryOptions& opt) {
  PlanBuilder pb = MakePlanBuilder(1, opt);
  auto bids = pb.Source("bids");
  auto f = pb.Filter(bids, "non_empty").Stage("convert");
  auto m = pb.Map(f, "usd_to_eur");
  pb.Sink(m, "q1");
  return pb.Build();
}

Result<plan::LogicalPlan> PlanQ2(const NexmarkQueryOptions& opt) {
  PlanBuilder pb = MakePlanBuilder(2, opt);
  auto bids = pb.Source("bids");
  auto f = pb.Filter(bids, "bid_on_sampled_auction").Stage("filter");
  pb.Sink(f, "q2");
  return pb.Build();
}

Result<plan::LogicalPlan> PlanQ3(const NexmarkQueryOptions& opt) {
  PlanBuilder pb = MakePlanBuilder(3, opt);
  auto auctions = pb.Source("auctions");
  auto persons = pb.Source("persons");
  auto fa = pb.Filter(auctions, "auction_in_category10").Stage("fa");
  auto ka = pb.KeyBy(fa, "auction_seller").Via("q3.auct");
  auto fp = pb.Filter(persons, "person_in_or_id_ca").Stage("fp");
  auto kp = pb.KeyBy(fp, "person_id").Via("q3.pers");
  auto j =
      pb.JoinTables(ka, kp, "q3j", "auction_x_person").Stage("join");
  auto ks = pb.KeyBy(j, "joined_row_state").Via("q3.bystate");
  auto agg = pb.Aggregate(ks, "q3cnt", "count").Stage("agg");
  pb.Sink(agg, "q3");
  return pb.Build();
}

// Shared Q4/Q6 prefix: key auctions by id and bids by auction, windowed
// stream-stream join (bids = input 0), running max (winning) bid. Returns
// the max-win aggregate node, to be re-keyed per query.
PlanBuilder::NodeRef AddWinningBidPlan(PlanBuilder& pb,
                                       const NexmarkQueryOptions& opt,
                                       const std::string& prefix) {
  auto bids = pb.Source("bids");
  auto auctions = pb.Source("auctions");
  auto ka = pb.KeyBy(auctions, "auction_id").Stage("ka").Via(prefix + ".A");
  auto kb = pb.KeyBy(bids, "bid_auction").Stage("kb").Via(prefix + ".B");
  auto j = pb.JoinStreams(kb, ka, prefix + "j", opt.join_window,
                          "bid_x_auction", opt.allowed_lateness)
               .Stage("winbid");
  auto f = pb.Filter(j, "non_empty");
  return pb.Aggregate(f, prefix + "max", "max_win");
}

Result<plan::LogicalPlan> PlanQ4(const NexmarkQueryOptions& opt) {
  PlanBuilder pb = MakePlanBuilder(4, opt);
  auto maxed = AddWinningBidPlan(pb, opt, "q4");
  auto kc = pb.KeyBy(maxed, "win_category").Via("q4.maxed");
  auto avg = pb.TableAggregate(kc, "q4avg", /*group_key=*/"record_key",
                               "avg_price", /*row_key=*/"win_auction")
                 .Stage("avg");
  pb.Sink(avg, "q4");
  return pb.Build();
}

Result<plan::LogicalPlan> PlanQ5(const NexmarkQueryOptions& opt) {
  PlanBuilder pb = MakePlanBuilder(5, opt);
  auto bids = pb.Source("bids");
  auto f = pb.Filter(bids, "non_empty").Stage("kb");
  auto kb = pb.KeyBy(f, "bid_auction").Via("q5.byauction");
  auto w = pb.WindowAggregate(kb, "q5w",
                              WindowSpec::Sliding(opt.q5_window, opt.q5_slide),
                              "count", opt.allowed_lateness,
                              WindowEmitMode::kEagerSuppressed)
               .Stage("win");
  auto m = pb.Map(w, "pack_q5_window_count");
  auto kw = pb.KeyBy(m, "q5_window_start").Via("q5.counts");
  auto max = pb.Aggregate(kw, "q5max", "hottest_auction").Stage("max");
  pb.Sink(max, "q5");
  return pb.Build();
}

Result<plan::LogicalPlan> PlanQ6(const NexmarkQueryOptions& opt) {
  PlanBuilder pb = MakePlanBuilder(6, opt);
  auto maxed = AddWinningBidPlan(pb, opt, "q6");
  auto ks = pb.KeyBy(maxed, "win_seller").Via("q6.wins");
  auto avg = pb.Aggregate(ks, "q6ring", "last10_wins").Stage("avg10");
  pb.Sink(avg, "q6");
  return pb.Build();
}

Result<plan::LogicalPlan> PlanQ7(const NexmarkQueryOptions& opt) {
  PlanBuilder pb = MakePlanBuilder(7, opt);
  auto bids = pb.Source("bids");
  auto f = pb.Filter(bids, "non_empty").Stage("win");
  auto w = pb.WindowAggregate(f, "q7w", WindowSpec::Tumbling(opt.q7_window),
                              "max_bid", opt.allowed_lateness,
                              WindowEmitMode::kEagerSuppressed);
  auto kw = pb.KeyBy(w, "window_start").Via("q7.partial");
  auto max = pb.Aggregate(kw, "q7max", "max_of_window_max").Stage("max");
  pb.Sink(max, "q7");
  return pb.Build();
}

Result<plan::LogicalPlan> PlanQ8(const NexmarkQueryOptions& opt) {
  PlanBuilder pb = MakePlanBuilder(8, opt);
  auto persons = pb.Source("persons");
  auto auctions = pb.Source("auctions");
  auto kp = pb.KeyBy(persons, "person_id").Stage("kp").Via("q8.P");
  auto ka = pb.KeyBy(auctions, "auction_seller").Stage("ka").Via("q8.A");
  auto j = pb.JoinStreams(kp, ka, "q8j", opt.q8_window, "person_x_auction",
                          opt.allowed_lateness)
               .Stage("join");
  auto agg = pb.Aggregate(j, "q8cnt", "count");
  pb.Sink(agg, "q8");
  return pb.Build();
}

}  // namespace

const plan::UdfRegistry& NexmarkUdfRegistry() {
  static const plan::UdfRegistry registry = MakeNexmarkUdfRegistry();
  return registry;
}

Result<plan::LogicalPlan> BuildNexmarkLogicalPlan(
    int number, const NexmarkQueryOptions& options) {
  switch (number) {
    case 1:
      return PlanQ1(options);
    case 2:
      return PlanQ2(options);
    case 3:
      return PlanQ3(options);
    case 4:
      return PlanQ4(options);
    case 5:
      return PlanQ5(options);
    case 6:
      return PlanQ6(options);
    case 7:
      return PlanQ7(options);
    case 8:
      return PlanQ8(options);
    default:
      return InvalidArgumentError("NEXMark queries are numbered 1-8");
  }
}

Result<NexmarkPlanQuery> BuildNexmarkPlanQuery(
    int number, const NexmarkQueryOptions& options, bool fuse) {
  NexmarkPlanQuery out;
  IMPELLER_ASSIGN_OR_RETURN(out.logical,
                            BuildNexmarkLogicalPlan(number, options));
  IMPELLER_ASSIGN_OR_RETURN(
      out.lowered, plan::LowerPlan(out.logical, NexmarkUdfRegistry(), fuse));
  return out;
}

Result<std::string> PlanSinkStage(const plan::LoweredPlan& lowered) {
  for (const auto& stage : lowered.stages) {
    for (const auto& output : stage.outputs) {
      const StreamSpec* spec = lowered.query.FindStream(output);
      if (spec != nullptr && spec->egress) {
        return stage.name;
      }
    }
  }
  return NotFoundError("plan '" + lowered.query.name +
                       "' has no sinking stage");
}

}  // namespace nexmark
}  // namespace impeller

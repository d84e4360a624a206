// Reproduces Section II-D's validation numbers:
//   * 2-fold holdout (train on "T" settings, validate on "V"):
//     paper reports mean 2.87%, sd 2.47%, min 0.00%, max 11.94%.
//   * 16-fold cross-validation (leave one *setting* out):
//     paper reports mean 6.56%, sd 3.80%, min 1.60%, max 15.22%.
// A random 16-fold over samples is also shown for comparison.
#include <iostream>

#include "bench/common.hpp"
#include "core/crossval.hpp"
#include "util/table.hpp"

int main() {
  using namespace eroof;
  const auto ctx = model::TuneContext::tegra_default();

  const auto train = ctx->samples(hw::SettingRole::kTrain);
  const auto val = ctx->samples(hw::SettingRole::kValidate);
  const auto all = ctx->all_samples();

  const auto holdout = model::holdout_validation(train, val);
  const auto loso = model::leave_one_setting_out(all);
  util::Rng rng(7);
  const auto kfold = model::kfold_validation(all, 16, rng);

  std::cout << "Section II-D: model validation (prediction error vs "
               "PowerMon-measured energy, %)\n\n";
  util::Table t({"Method", "Samples", "Mean", "StdDev", "Min", "Max",
                 "Paper mean", "Paper max"},
                {util::Align::kLeft, util::Align::kRight, util::Align::kRight,
                 util::Align::kRight, util::Align::kRight, util::Align::kRight,
                 util::Align::kRight, util::Align::kRight});
  const auto row = [&t](const char* name, const model::ValidationReport& r,
                        const char* pmean, const char* pmax) {
    t.add_row({name, std::to_string(r.errors_pct.size()),
               util::Table::num(r.summary.mean, 2),
               util::Table::num(r.summary.stddev, 2),
               util::Table::num(r.summary.min, 2),
               util::Table::num(r.summary.max, 2), pmean, pmax});
  };
  row("2-fold holdout (T -> V)", holdout, "2.87", "11.94");
  row("16-fold (leave-one-setting-out)", loso, "6.56", "15.22");
  row("16-fold (random folds)", kfold, "-", "-");
  t.print(std::cout);
  return 0;
}

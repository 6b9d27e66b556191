#include "src/util/cli.h"

#include <gtest/gtest.h>

#include <vector>

namespace hetefedrec {
namespace {

// Builds a mutable argv from string literals.
class ArgvBuilder {
 public:
  explicit ArgvBuilder(std::vector<std::string> args) : args_(std::move(args)) {
    for (auto& a : args_) argv_.push_back(a.data());
  }
  int argc() { return static_cast<int>(argv_.size()); }
  char** argv() { return argv_.data(); }

 private:
  std::vector<std::string> args_;
  std::vector<char*> argv_;
};

TEST(CliTest, DefaultsApplyWithoutArgs) {
  CommandLine cli;
  cli.AddFlag("epochs", "20", "training epochs");
  ArgvBuilder args({"prog"});
  ASSERT_TRUE(cli.Parse(args.argc(), args.argv()).ok());
  EXPECT_EQ(cli.GetInt("epochs"), 20);
}

TEST(CliTest, EqualsSyntax) {
  CommandLine cli;
  cli.AddFlag("scale", "bench", "scale preset");
  ArgvBuilder args({"prog", "--scale=paper"});
  ASSERT_TRUE(cli.Parse(args.argc(), args.argv()).ok());
  EXPECT_EQ(cli.GetString("scale"), "paper");
}

TEST(CliTest, SpaceSyntax) {
  CommandLine cli;
  cli.AddFlag("alpha", "1.0", "regularization factor");
  ArgvBuilder args({"prog", "--alpha", "0.5"});
  ASSERT_TRUE(cli.Parse(args.argc(), args.argv()).ok());
  EXPECT_DOUBLE_EQ(cli.GetDouble("alpha"), 0.5);
}

TEST(CliTest, BareBooleanFlag) {
  CommandLine cli;
  cli.AddFlag("verbose", "false", "chatty output");
  ArgvBuilder args({"prog", "--verbose"});
  ASSERT_TRUE(cli.Parse(args.argc(), args.argv()).ok());
  EXPECT_TRUE(cli.GetBool("verbose"));
}

TEST(CliTest, UnknownFlagRejected) {
  CommandLine cli;
  cli.AddFlag("epochs", "20", "training epochs");
  ArgvBuilder args({"prog", "--epoch=5"});
  Status s = cli.Parse(args.argc(), args.argv());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(CliTest, PositionalArgumentRejected) {
  CommandLine cli;
  ArgvBuilder args({"prog", "stray"});
  EXPECT_FALSE(cli.Parse(args.argc(), args.argv()).ok());
}

TEST(CliTest, MissingValueRejected) {
  CommandLine cli;
  cli.AddFlag("seed", "1", "rng seed");
  ArgvBuilder args({"prog", "--seed"});
  EXPECT_FALSE(cli.Parse(args.argc(), args.argv()).ok());
}

TEST(CliTest, UsageListsFlags) {
  CommandLine cli;
  cli.AddFlag("seed", "1", "rng seed");
  std::string usage = cli.Usage("prog");
  EXPECT_NE(usage.find("--seed"), std::string::npos);
  EXPECT_NE(usage.find("rng seed"), std::string::npos);
}

// The shared registry behind every experiment binary: registering it
// makes the shared flags parseable with their documented defaults, and it
// composes with binary-local flags.
TEST(CliTest, ExperimentFlagRegistryParsesSharedFlags) {
  CommandLine cli;
  cli.AddFlag("scale", "bench", "binary-local flag");
  RegisterExperimentFlags(&cli);
  ArgvBuilder args({"prog", "--server_shards=4", "--async",
                    "--fault_crash=0.1", "--round_deadline=30",
                    "--scale=paper"});
  ASSERT_TRUE(cli.Parse(args.argc(), args.argv()).ok());
  EXPECT_EQ(cli.GetInt("server_shards"), 4);
  EXPECT_TRUE(cli.GetBool("async"));
  EXPECT_DOUBLE_EQ(cli.GetDouble("fault_crash"), 0.1);
  EXPECT_DOUBLE_EQ(cli.GetDouble("round_deadline"), 30.0);
  EXPECT_EQ(cli.GetString("scale"), "paper");
  // Untouched shared flags keep their documented defaults.
  EXPECT_EQ(cli.GetInt("seed"), 7);
  EXPECT_EQ(cli.GetString("agg"), "mean");
  EXPECT_EQ(cli.GetInt("server_shards"), 4);
  EXPECT_DOUBLE_EQ(cli.GetDouble("net_bandwidth"), 1.25e6);
  EXPECT_EQ(cli.GetInt("fault_retry_max"), 5);
}

// Parses `--name=value` against a single registered flag.
CommandLine ParsedWith(const std::string& name, const std::string& value) {
  CommandLine cli;
  cli.AddFlag(name, "0", "flag under test");
  ArgvBuilder args({"prog", "--" + name + "=" + value});
  EXPECT_TRUE(cli.Parse(args.argc(), args.argv()).ok());
  return cli;
}

TEST(CliTest, TypedGettersAcceptWellFormedValues) {
  EXPECT_EQ(ParsedWith("n", "-42").GetInt("n"), -42);
  EXPECT_EQ(ParsedWith("n", "2147483647").GetInt("n"), 2147483647);
  EXPECT_EQ(ParsedWith("n", "18446744073709551615").GetUint64("n"),
            18446744073709551615ULL);
  EXPECT_DOUBLE_EQ(ParsedWith("x", "1.25e6").GetDouble("x"), 1.25e6);
  EXPECT_DOUBLE_EQ(ParsedWith("x", "-0.5").GetDouble("x"), -0.5);
  for (const char* yes : {"true", "1", "yes"}) {
    EXPECT_TRUE(ParsedWith("b", yes).GetBool("b")) << yes;
  }
  for (const char* no : {"false", "0", "no"}) {
    EXPECT_FALSE(ParsedWith("b", no).GetBool("b")) << no;
  }
}

// A value a typed getter cannot parse in full stops the program with a
// message naming the flag and the value — never a silent 0 or false.
TEST(CliDeathTest, MalformedIntFails) {
  for (const char* bad : {"abc", "5x", "1.5", " 7", "99999999999", ""}) {
    SCOPED_TRACE(bad);
    CommandLine cli = ParsedWith("epochs", bad);
    EXPECT_EXIT(cli.GetInt("epochs"), testing::ExitedWithCode(2),
                "invalid value for --epochs: \"" + std::string(bad) + "\"");
  }
}

TEST(CliDeathTest, MalformedUint64Fails) {
  for (const char* bad : {"abc", "12seeds", "-1", "18446744073709551616",
                          ""}) {
    SCOPED_TRACE(bad);
    CommandLine cli = ParsedWith("seed", bad);
    EXPECT_EXIT(cli.GetUint64("seed"), testing::ExitedWithCode(2),
                "invalid value for --seed");
  }
}

TEST(CliDeathTest, MalformedDoubleFails) {
  for (const char* bad : {"abc", "0.5abc", "1e999", ""}) {
    SCOPED_TRACE(bad);
    CommandLine cli = ParsedWith("alpha", bad);
    EXPECT_EXIT(cli.GetDouble("alpha"), testing::ExitedWithCode(2),
                "invalid value for --alpha");
  }
}

TEST(CliDeathTest, MalformedBoolFails) {
  for (const char* bad : {"ture", "TRUE", "on", "2", ""}) {
    SCOPED_TRACE(bad);
    CommandLine cli = ParsedWith("async", bad);
    EXPECT_EXIT(cli.GetBool("async"), testing::ExitedWithCode(2),
                "invalid value for --async: \"" + std::string(bad) + "\"");
  }
}

// A second registration of a name would silently replace the first
// flag's default and help; it stops the program instead.
TEST(CliDeathTest, DuplicateRegistrationFails) {
  EXPECT_DEATH(
      {
        CommandLine cli;
        cli.AddFlag("epochs", "18", "global epochs");
        cli.AddFlag("epochs", "4", "global epochs");
      },
      "flag --epochs registered twice");
  // A binary flag that repeats a shared experiment flag.
  EXPECT_DEATH(
      {
        CommandLine cli;
        RegisterExperimentFlags(&cli);
        cli.AddFlag("agg", "mean", "mean | sum | weighted");
      },
      "flag --agg registered twice");
}

}  // namespace
}  // namespace hetefedrec

//===- service/Protocol.cpp - sks-serve wire protocol -----------------------===//
//
// Part of the sks project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/Protocol.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>

using namespace sks;

std::string sks::jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\r':
      Out += "\\r";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out.push_back(C);
      }
    }
  }
  return Out;
}

namespace {

/// One scanned JSON scalar: its raw source token and, for strings, the
/// unescaped text.
struct Scalar {
  std::string Raw;     ///< Verbatim source (quotes included for strings).
  std::string Text;    ///< Unescaped value for strings; Raw otherwise.
  bool IsString = false;
};

/// A minimal scanner for one flat JSON object. Nested objects/arrays are
/// protocol errors by design.
class FlatScanner {
public:
  explicit FlatScanner(const std::string &S) : S(S) {}

  bool scan(std::map<std::string, Scalar> &Out, std::string &Error) {
    skipWs();
    if (!eat('{')) {
      Error = "expected a JSON object";
      return false;
    }
    skipWs();
    if (eat('}'))
      return trailingOk(Error);
    for (;;) {
      Scalar Key;
      if (!scanString(Key, Error))
        return false;
      skipWs();
      if (!eat(':')) {
        Error = "expected ':' after key \"" + Key.Text + "\"";
        return false;
      }
      skipWs();
      Scalar Value;
      if (!scanValue(Value, Error))
        return false;
      Out[Key.Text] = Value;
      skipWs();
      if (eat(',')) {
        skipWs();
        continue;
      }
      if (eat('}'))
        return trailingOk(Error);
      Error = "expected ',' or '}'";
      return false;
    }
  }

private:
  void skipWs() {
    while (Pos < S.size() && std::isspace(static_cast<unsigned char>(S[Pos])))
      ++Pos;
  }
  bool eat(char C) {
    if (Pos < S.size() && S[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }
  bool trailingOk(std::string &Error) {
    skipWs();
    if (Pos != S.size()) {
      Error = "trailing characters after the object";
      return false;
    }
    return true;
  }

  bool scanString(Scalar &Out, std::string &Error) {
    if (!eat('"')) {
      Error = "expected a string";
      return false;
    }
    size_t Begin = Pos - 1;
    Out.IsString = true;
    Out.Text.clear();
    while (Pos < S.size()) {
      char C = S[Pos++];
      if (C == '"') {
        Out.Raw = S.substr(Begin, Pos - Begin);
        return true;
      }
      if (C == '\\') {
        if (Pos >= S.size())
          break;
        char E = S[Pos++];
        switch (E) {
        case '"':
          Out.Text += '"';
          break;
        case '\\':
          Out.Text += '\\';
          break;
        case '/':
          Out.Text += '/';
          break;
        case 'n':
          Out.Text += '\n';
          break;
        case 't':
          Out.Text += '\t';
          break;
        case 'r':
          Out.Text += '\r';
          break;
        default:
          Error = std::string("unsupported escape '\\") + E + "'";
          return false;
        }
        continue;
      }
      Out.Text += C;
    }
    Error = "unterminated string";
    return false;
  }

  bool scanValue(Scalar &Out, std::string &Error) {
    if (Pos >= S.size()) {
      Error = "expected a value";
      return false;
    }
    char C = S[Pos];
    if (C == '"')
      return scanString(Out, Error);
    if (C == '{' || C == '[') {
      Error = "nested objects/arrays are not part of the protocol";
      return false;
    }
    // Bare token: number, true, false, null.
    size_t Begin = Pos;
    while (Pos < S.size() && (std::isalnum(static_cast<unsigned char>(S[Pos])) ||
                              S[Pos] == '+' || S[Pos] == '-' || S[Pos] == '.' ||
                              S[Pos] == 'e' || S[Pos] == 'E'))
      ++Pos;
    if (Pos == Begin) {
      Error = "expected a value";
      return false;
    }
    Out.Raw = S.substr(Begin, Pos - Begin);
    Out.Text = Out.Raw;
    Out.IsString = false;
    return true;
  }

  const std::string &S;
  size_t Pos = 0;
};

bool parseUnsigned(const Scalar &V, unsigned long &Out) {
  if (V.IsString || V.Text.empty())
    return false;
  char *End = nullptr;
  Out = std::strtoul(V.Text.c_str(), &End, 10);
  return End && *End == '\0';
}

bool parseDouble(const Scalar &V, double &Out) {
  if (V.IsString || V.Text.empty())
    return false;
  char *End = nullptr;
  Out = std::strtod(V.Text.c_str(), &End);
  return End && *End == '\0' && std::isfinite(Out);
}

} // namespace

bool sks::parseRequestLine(const std::string &Line, WireRequest &Out,
                           std::string &Error) {
  std::map<std::string, Scalar> Fields;
  FlatScanner Scanner(Line);
  bool Ok = Scanner.scan(Fields, Error);
  // Recover the id even from a failed parse when the scanner got that far,
  // so the error response can be correlated.
  if (auto It = Fields.find("id"); It != Fields.end())
    Out.Id = It->second.Raw;
  if (!Ok)
    return false;

  bool SawN = false;
  for (const auto &[Key, Value] : Fields) {
    if (Key == "id") {
      // Echoed verbatim into the response, so it must itself be valid
      // JSON: a string, or a bare number.
      double Dummy = 0;
      if (!Value.IsString && !parseDouble(Value, Dummy)) {
        Out.Id.clear();
        Error = "\"id\" must be a string or a number";
        return false;
      }
    } else if (Key == "n") {
      unsigned long N = 0;
      if (!parseUnsigned(Value, N) || N < 2 || N > 6) {
        Error = "\"n\" must be an integer in 2..6";
        return false;
      }
      Out.Req.N = static_cast<unsigned>(N);
      SawN = true;
    } else if (Key == "isa") {
      if (Value.Text == "cmov")
        Out.Req.Kind = MachineKind::Cmov;
      else if (Value.Text == "minmax")
        Out.Req.Kind = MachineKind::MinMax;
      else if (Value.Text == "hybrid")
        Out.Req.Kind = MachineKind::Hybrid;
      else {
        Error = "\"isa\" must be cmov, minmax, or hybrid";
        return false;
      }
    } else if (Key == "goal") {
      if (Value.Text == "first")
        Out.Req.Goal = SynthGoal::FirstKernel;
      else if (Value.Text == "minlength")
        Out.Req.Goal = SynthGoal::MinLength;
      else {
        Error = "\"goal\" must be first or minlength";
        return false;
      }
    } else if (Key == "goal_pred") {
      if (!Value.IsString || !GoalSpec::parse(Value.Text, Out.Req.GoalPred)) {
        Error = std::string("\"goal_pred\" must be one of: ") +
                GoalSpec::validNames();
        return false;
      }
    } else if (Key == "backend") {
      bool Known = Value.Text == "portfolio";
      for (const std::string &Name : backendNames())
        Known = Known || Value.Text == Name;
      if (!Known) {
        Error = "\"backend\" must be portfolio or one of the registered "
                "backends";
        return false;
      }
      Out.Req.BackendPolicy = Value.Text;
    } else if (Key == "timeout") {
      double Timeout = 0;
      if (!parseDouble(Value, Timeout) || Timeout < 0) {
        Error = "\"timeout\" must be a non-negative number of seconds";
        return false;
      }
      Out.Req.TimeoutSeconds = Timeout;
    } else if (Key == "max_length") {
      unsigned long MaxLength = 0;
      if (!parseUnsigned(Value, MaxLength) || MaxLength > 1000) {
        Error = "\"max_length\" must be a small non-negative integer";
        return false;
      }
      Out.Req.MaxLength = static_cast<unsigned>(MaxLength);
    } else if (Key == "threads") {
      unsigned long Threads = 0;
      if (!parseUnsigned(Value, Threads) || Threads < 1 || Threads > 256) {
        Error = "\"threads\" must be an integer in 1..256";
        return false;
      }
      Out.Req.NumThreads = static_cast<unsigned>(Threads);
    } else {
      Error = "unknown key \"" + Key + "\"";
      return false;
    }
  }
  if (!SawN) {
    Error = "missing mandatory key \"n\"";
    return false;
  }
  // Hybrid machines only fit the packed encoding at n = 3 (machine/
  // Machine.h); reject here rather than assert in the worker.
  if (Out.Req.Kind == MachineKind::Hybrid && Out.Req.N != 3) {
    Error = "\"isa\" hybrid requires n = 3";
    return false;
  }
  // The goal parameter ranges over 1..n; validated here because the map
  // iterates keys alphabetically and "goal_pred" precedes "n".
  if (!Out.Req.GoalPred.validFor(Out.Req.N)) {
    Error = "\"goal_pred\" parameter must be in 1..n";
    return false;
  }
  return true;
}

static std::string idToken(const std::string &Id) {
  return Id.empty() ? "null" : Id;
}

std::string sks::responseLine(const std::string &Id, const SynthOutcome &O,
                              unsigned NumData, bool Cached,
                              double ServiceSeconds) {
  char Buf[128];
  std::string Out = "{\"id\": " + idToken(Id);
  Out += ", \"backend\": \"" + jsonEscape(O.BackendName) + "\"";
  Out += std::string(", \"status\": \"") + statusName(O.Status) + "\"";
  std::snprintf(Buf, sizeof(Buf), ", \"seconds\": %.6f", O.Seconds);
  Out += Buf;
  Out += std::string(", \"verified\": ") + (O.Verified ? "true" : "false");
  Out += ", \"length\": " + std::to_string(O.Kernel.size());
  Out += std::string(", \"cached\": ") + (Cached ? "true" : "false");
  std::snprintf(Buf, sizeof(Buf), ", \"service_seconds\": %.6f",
                ServiceSeconds);
  Out += Buf;
  Out += ", \"kernel\": \"" + jsonEscape(toString(O.Kernel, NumData)) + "\"";
  Out += ", \"stats\": {";
  for (size_t I = 0; I != O.Stats.size(); ++I) {
    if (I)
      Out += ", ";
    Out.append("\"").append(jsonEscape(O.Stats[I].first));
    Out.append("\": ").append(std::to_string(O.Stats[I].second));
  }
  Out += "}}";
  return Out;
}

std::string sks::errorLine(const std::string &Id, const std::string &Message) {
  return "{\"id\": " + idToken(Id) + ", \"error\": \"" + jsonEscape(Message) +
         "\"}";
}

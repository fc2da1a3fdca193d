"""The @function library.

Functions receive already-evaluated argument lists (remember: every formula
value is a list) except the *lazy* ones (``@If``, ``@IsAvailable`` …) which
receive the raw AST nodes plus an evaluation callback so they can skip
branches or inspect field names.

The registry is open: ``register_function`` lets applications add their own
@functions, as Domino releases grew the language over time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from repro.errors import FormulaEvalError
from repro.formula.nodes import FieldRef


@dataclass(frozen=True)
class FunctionSpec:
    name: str
    impl: Callable
    min_args: int
    max_args: int | None  # None = unbounded
    lazy: bool = False


FUNCTIONS: dict[str, FunctionSpec] = {}


def register_function(
    name: str, min_args: int = 0, max_args: int | None = None, lazy: bool = False
):
    """Decorator adding an @function to the global registry."""

    def decorate(impl: Callable) -> Callable:
        key = name.lower()
        if not key.startswith("@"):
            raise FormulaEvalError(f"function name must start with '@': {name}")
        FUNCTIONS[key] = FunctionSpec(key, impl, min_args, max_args, lazy)
        return impl

    return decorate


# -- helpers shared with the evaluator ------------------------------------


def truth(value: list) -> bool:
    """Notes truth: a value is true when its first element is non-zero/empty."""
    if not value:
        return False
    head = value[0]
    if isinstance(head, str):
        return head != ""
    return bool(head)


def _strings(value: list, where: str) -> list[str]:
    if not all(isinstance(element, str) for element in value):
        raise FormulaEvalError(f"{where} expects text values, got {value!r}")
    return value


def _numbers(value: list, where: str) -> list:
    cleaned = []
    for element in value:
        if isinstance(element, bool) or not isinstance(element, (int, float)):
            raise FormulaEvalError(f"{where} expects numbers, got {element!r}")
        cleaned.append(element)
    return cleaned


def _scalar_int(value: list, where: str) -> int:
    numbers = _numbers(value, where)
    if not numbers:
        raise FormulaEvalError(f"{where} got an empty number list")
    return int(numbers[0])


def to_text(element) -> str:
    if isinstance(element, str):
        return element
    if isinstance(element, float) and element.is_integer():
        return str(int(element))
    return str(element)


# -- control flow -----------------------------------------------------------


@register_function("@if", min_args=2, lazy=True)
def _fn_if(ctx, args, evaluate):
    """@If(cond1; val1; cond2; val2; ...; else) — lazy branch evaluation."""
    index = 0
    while index + 1 < len(args):
        if truth(evaluate(args[index], ctx)):
            return evaluate(args[index + 1], ctx)
        index += 2
    if index < len(args):
        return evaluate(args[index], ctx)
    return [""]


@register_function("@select", min_args=2)
def _fn_select(ctx, selector, *choices):
    index = _scalar_int(selector, "@Select")
    if index < 1:
        raise FormulaEvalError(f"@Select index {index} must be >= 1")
    if index > len(choices):
        return list(choices[-1])
    return list(choices[index - 1])


@register_function("@do", min_args=1)
def _fn_do(ctx, *args):
    return list(args[-1])


@register_function("@success", max_args=0)
def _fn_success(ctx):
    return [1]


@register_function("@failure", min_args=1, max_args=1)
def _fn_failure(ctx, message):
    raise FormulaEvalError(f"@Failure: {message[0] if message else ''}")


@register_function("@return", min_args=1, max_args=1)
def _fn_return(ctx, value):
    return list(value)


# -- document / environment ----------------------------------------------


def _require_doc(ctx, who: str):
    if ctx.doc is None:
        raise FormulaEvalError(f"{who} needs a document context")
    return ctx.doc


@register_function("@all", max_args=0)
def _fn_all(ctx):
    return [1]


@register_function("@allchildren", max_args=0)
def _fn_allchildren(ctx):
    ctx.wants_children = True
    return [0]


@register_function("@alldescendants", max_args=0)
def _fn_alldescendants(ctx):
    ctx.wants_descendants = True
    return [0]


@register_function("@documentuniqueid", max_args=0)
def _fn_unid(ctx):
    return [_require_doc(ctx, "@DocumentUniqueID").unid]


@register_function("@noteid", max_args=0)
def _fn_noteid(ctx):
    return [_require_doc(ctx, "@NoteID").note_id]


@register_function("@created", max_args=0)
def _fn_created(ctx):
    return [_require_doc(ctx, "@Created").created]


@register_function("@modified", max_args=0)
def _fn_modified(ctx):
    return [_require_doc(ctx, "@Modified").modified]


@register_function("@updatedby", max_args=0)
def _fn_updatedby(ctx):
    return list(_require_doc(ctx, "@UpdatedBy").updated_by) or [""]


@register_function("@author", max_args=0)
def _fn_author(ctx):
    updated_by = _require_doc(ctx, "@Author").updated_by
    return [updated_by[0]] if updated_by else [""]


@register_function("@isresponsedoc", max_args=0)
def _fn_isresponse(ctx):
    return [1 if _require_doc(ctx, "@IsResponseDoc").is_response else 0]


@register_function("@isnewdoc", max_args=0)
def _fn_isnew(ctx):
    return [1 if ctx.doc is None or ctx.doc.seq <= 1 else 0]


@register_function("@now", max_args=0)
def _fn_now(ctx):
    if ctx.clock is not None:
        return [ctx.clock.now]
    return [_require_doc(ctx, "@Now (without clock)").modified]


@register_function("@today", max_args=0)
def _fn_today(ctx):
    now = _fn_now(ctx)[0]
    return [math.floor(now / 86400.0) * 86400.0]


@register_function("@username", max_args=0)
def _fn_username(ctx):
    return [ctx.user]


@register_function("@isavailable", min_args=1, max_args=1, lazy=True)
def _fn_isavailable(ctx, args, evaluate):
    node = args[0]
    if not isinstance(node, FieldRef):
        raise FormulaEvalError("@IsAvailable expects a field name")
    return [1 if ctx.has_field(node.name) else 0]


@register_function("@isunavailable", min_args=1, max_args=1, lazy=True)
def _fn_isunavailable(ctx, args, evaluate):
    available = _fn_isavailable(ctx, args, evaluate)
    return [1 - available[0]]


@register_function("@getfield", min_args=1, max_args=1)
def _fn_getfield(ctx, name):
    return ctx.read_field(_strings(name, "@GetField")[0])


@register_function("@setfield", min_args=2, max_args=2)
def _fn_setfield(ctx, name, value):
    ctx.write_field(_strings(name, "@SetField")[0], list(value))
    return list(value)


@register_function("@getprofilefield", min_args=2, max_args=3)
def _fn_getprofilefield(ctx, profile, item, user=None):
    if ctx.db is None:
        raise FormulaEvalError("@GetProfileField needs a database context")
    username = _strings(user, "@GetProfileField")[0] if user else ""
    doc = ctx.db.profile(_strings(profile, "@GetProfileField")[0], username)
    value = doc.get(_strings(item, "@GetProfileField")[0], "")
    return value if isinstance(value, list) else [value]


# -- text -------------------------------------------------------------------


@register_function("@text", min_args=1, max_args=1)
def _fn_text(ctx, value):
    return [to_text(element) for element in value] or [""]


@register_function("@texttonumber", min_args=1, max_args=1)
def _fn_texttonumber(ctx, value):
    result = []
    for element in _strings(value, "@TextToNumber"):
        try:
            result.append(float(element) if "." in element else int(element))
        except ValueError as exc:
            raise FormulaEvalError(f"@TextToNumber: {element!r}") from exc
    return result or [0]


@register_function("@length", min_args=1, max_args=1)
def _fn_length(ctx, value):
    return [len(element) if isinstance(element, str) else len(to_text(element)) for element in value] or [0]


@register_function("@left", min_args=2, max_args=2)
def _fn_left(ctx, text, arg):
    result = []
    for element in _strings(text, "@Left"):
        if arg and isinstance(arg[0], str):
            index = element.find(arg[0])
            result.append(element[:index] if index >= 0 else "")
        else:
            result.append(element[: _scalar_int(arg, "@Left")])
    return result or [""]


@register_function("@right", min_args=2, max_args=2)
def _fn_right(ctx, text, arg):
    result = []
    for element in _strings(text, "@Right"):
        if arg and isinstance(arg[0], str):
            index = element.find(arg[0])
            result.append(element[index + len(arg[0]):] if index >= 0 else "")
        else:
            count = _scalar_int(arg, "@Right")
            result.append(element[-count:] if count > 0 else "")
    return result or [""]


@register_function("@middle", min_args=3, max_args=3)
def _fn_middle(ctx, text, offset, count):
    start = _scalar_int(offset, "@Middle")
    length = _scalar_int(count, "@Middle")
    return [element[start : start + length] for element in _strings(text, "@Middle")] or [""]


@register_function("@contains", min_args=2, max_args=2)
def _fn_contains(ctx, haystack, needles):
    for hay in _strings(haystack, "@Contains"):
        for needle in _strings(needles, "@Contains"):
            if needle.lower() in hay.lower():
                return [1]
    return [0]


@register_function("@begins", min_args=2, max_args=2)
def _fn_begins(ctx, haystack, prefixes):
    for hay in _strings(haystack, "@Begins"):
        for prefix in _strings(prefixes, "@Begins"):
            if hay.startswith(prefix):
                return [1]
    return [0]


@register_function("@ends", min_args=2, max_args=2)
def _fn_ends(ctx, haystack, suffixes):
    for hay in _strings(haystack, "@Ends"):
        for suffix in _strings(suffixes, "@Ends"):
            if hay.endswith(suffix):
                return [1]
    return [0]


@register_function("@lowercase", min_args=1, max_args=1)
def _fn_lowercase(ctx, value):
    return [element.lower() for element in _strings(value, "@LowerCase")] or [""]


@register_function("@uppercase", min_args=1, max_args=1)
def _fn_uppercase(ctx, value):
    return [element.upper() for element in _strings(value, "@UpperCase")] or [""]


@register_function("@propercase", min_args=1, max_args=1)
def _fn_propercase(ctx, value):
    return [element.title() for element in _strings(value, "@ProperCase")] or [""]


@register_function("@trim", min_args=1, max_args=1)
def _fn_trim(ctx, value):
    trimmed = [" ".join(element.split()) for element in _strings(value, "@Trim")]
    return [element for element in trimmed if element] or [""]


@register_function("@word", min_args=3, max_args=3)
def _fn_word(ctx, text, separator, number):
    sep = _strings(separator, "@Word")[0]
    index = _scalar_int(number, "@Word")
    result = []
    for element in _strings(text, "@Word"):
        words = element.split(sep)
        result.append(words[index - 1] if 1 <= index <= len(words) else "")
    return result or [""]


@register_function("@replacesubstring", min_args=3, max_args=3)
def _fn_replacesubstring(ctx, text, sources, targets):
    froms = _strings(sources, "@ReplaceSubstring")
    tos = _strings(targets, "@ReplaceSubstring")
    result = []
    for element in _strings(text, "@ReplaceSubstring"):
        for position, source in enumerate(froms):
            target = tos[min(position, len(tos) - 1)] if tos else ""
            element = element.replace(source, target)
        result.append(element)
    return result or [""]


@register_function("@repeat", min_args=2, max_args=2)
def _fn_repeat(ctx, text, count):
    times = _scalar_int(count, "@Repeat")
    return [element * times for element in _strings(text, "@Repeat")] or [""]


@register_function("@matches", min_args=2, max_args=2)
def _fn_matches(ctx, text, patterns):
    import fnmatch

    for element in _strings(text, "@Matches"):
        for pattern in _strings(patterns, "@Matches"):
            if fnmatch.fnmatchcase(element, pattern):
                return [1]
    return [0]


# -- lists --------------------------------------------------------------


@register_function("@elements", min_args=1, max_args=1)
def _fn_elements(ctx, value):
    if value == [""]:
        return [0]
    return [len(value)]


@register_function("@subset", min_args=2, max_args=2)
def _fn_subset(ctx, value, count):
    n = _scalar_int(count, "@Subset")
    if n == 0:
        raise FormulaEvalError("@Subset count must be non-zero")
    return list(value[:n]) if n > 0 else list(value[n:])


@register_function("@explode", min_args=1, max_args=2)
def _fn_explode(ctx, text, separator=None):
    seps = _strings(separator, "@Explode") if separator else [" ", ",", ";"]
    result: list[str] = []
    for element in _strings(text, "@Explode"):
        parts = [element]
        for sep in seps:
            parts = [piece for chunk in parts for piece in chunk.split(sep)]
        result.extend(part for part in parts if part)
    return result or [""]


@register_function("@implode", min_args=1, max_args=2)
def _fn_implode(ctx, value, separator=None):
    sep = _strings(separator, "@Implode")[0] if separator else " "
    return [sep.join(to_text(element) for element in value)]


@register_function("@unique", min_args=0, max_args=1)
def _fn_unique(ctx, value=None):
    if value is None:
        # Argument-less @Unique returns a pseudo-unique text (used for keys).
        return [f"U{ctx.next_unique()}"]
    seen = set()
    result = []
    for element in value:
        if element not in seen:
            seen.add(element)
            result.append(element)
    return result or [""]


@register_function("@sort", min_args=1, max_args=2)
def _fn_sort(ctx, value, order=None):
    descending = bool(order) and _strings(order, "@Sort")[0].upper() == "[DESCENDING]"
    try:
        return sorted(value, reverse=descending) or [""]
    except TypeError as exc:
        raise FormulaEvalError(f"@Sort on mixed-type list {value!r}") from exc


@register_function("@member", min_args=2, max_args=2)
def _fn_member(ctx, needle, haystack):
    for candidate in needle:
        if candidate in haystack:
            return [haystack.index(candidate) + 1]
    return [0]


@register_function("@ismember", min_args=2, max_args=2)
def _fn_ismember(ctx, needle, haystack):
    return [1 if any(candidate in haystack for candidate in needle) else 0]


@register_function("@replace", min_args=3, max_args=3)
def _fn_replace(ctx, value, sources, targets):
    result = []
    for element in value:
        if element in sources:
            position = sources.index(element)
            if position < len(targets):
                replacement = targets[position]
                if replacement != "":
                    result.append(replacement)
            # empty replacement drops the element
        else:
            result.append(element)
    return result or [""]


@register_function("@keywords", min_args=2, max_args=2)
def _fn_keywords(ctx, text, keywords):
    found = []
    lowered = [t.lower() for t in _strings(text, "@Keywords")]
    for keyword in _strings(keywords, "@Keywords"):
        if any(keyword.lower() in t for t in lowered):
            found.append(keyword)
    return found or [""]


# -- numbers ------------------------------------------------------------


@register_function("@sum", min_args=1)
def _fn_sum(ctx, *args):
    total = 0
    for arg in args:
        total += sum(_numbers(arg, "@Sum"))
    return [total]


@register_function("@min", min_args=1)
def _fn_min(ctx, *args):
    values = [element for arg in args for element in _numbers(arg, "@Min")]
    if not values:
        raise FormulaEvalError("@Min of empty list")
    return [min(values)]


@register_function("@max", min_args=1)
def _fn_max(ctx, *args):
    values = [element for arg in args for element in _numbers(arg, "@Max")]
    if not values:
        raise FormulaEvalError("@Max of empty list")
    return [max(values)]


@register_function("@abs", min_args=1, max_args=1)
def _fn_abs(ctx, value):
    return [abs(element) for element in _numbers(value, "@Abs")] or [0]


@register_function("@round", min_args=1, max_args=2)
def _fn_round(ctx, value, places=None):
    digits = _scalar_int(places, "@Round") if places else 0
    result = [round(element, digits) for element in _numbers(value, "@Round")]
    if digits == 0:
        result = [int(element) for element in result]
    return result or [0]


@register_function("@integer", min_args=1, max_args=1)
def _fn_integer(ctx, value):
    return [int(element) for element in _numbers(value, "@Integer")] or [0]


@register_function("@modulo", min_args=2, max_args=2)
def _fn_modulo(ctx, left, right):
    divisor = _scalar_int(right, "@Modulo")
    if divisor == 0:
        raise FormulaEvalError("@Modulo by zero")
    return [int(math.fmod(element, divisor)) for element in _numbers(left, "@Modulo")] or [0]


@register_function("@sqrt", min_args=1, max_args=1)
def _fn_sqrt(ctx, value):
    result = []
    for element in _numbers(value, "@Sqrt"):
        if element < 0:
            raise FormulaEvalError(f"@Sqrt of negative {element}")
        result.append(math.sqrt(element))
    return result or [0]


@register_function("@power", min_args=2, max_args=2)
def _fn_power(ctx, base, exponent):
    exp = _numbers(exponent, "@Power")[0]
    return [element**exp for element in _numbers(base, "@Power")] or [0]


@register_function("@random", max_args=0)
def _fn_random(ctx):
    return [ctx.rng.random()]


# -- dates -------------------------------------------------------------
#
# Virtual time counts seconds from an epoch; the calendar functions map it
# through the proleptic Gregorian calendar with day 0 = 1970-01-01 (a
# Thursday), the same convention the simulation's workloads use.

_SECONDS_PER_DAY = 86_400.0


def _gmtime(value, where: str):
    import time as _time

    numbers = _numbers(value, where)
    return [_time.gmtime(v) for v in numbers]


@register_function("@year", min_args=1, max_args=1)
def _fn_year(ctx, value):
    return [t.tm_year for t in _gmtime(value, "@Year")] or [0]


@register_function("@month", min_args=1, max_args=1)
def _fn_month(ctx, value):
    return [t.tm_mon for t in _gmtime(value, "@Month")] or [0]


@register_function("@day", min_args=1, max_args=1)
def _fn_day(ctx, value):
    return [t.tm_mday for t in _gmtime(value, "@Day")] or [0]


@register_function("@hour", min_args=1, max_args=1)
def _fn_hour(ctx, value):
    return [t.tm_hour for t in _gmtime(value, "@Hour")] or [0]


@register_function("@minute", min_args=1, max_args=1)
def _fn_minute(ctx, value):
    return [t.tm_min for t in _gmtime(value, "@Minute")] or [0]


@register_function("@weekday", min_args=1, max_args=1)
def _fn_weekday(ctx, value):
    # Notes: 1 = Sunday .. 7 = Saturday.
    return [(t.tm_wday + 1) % 7 + 1 for t in _gmtime(value, "@Weekday")] or [0]


@register_function("@date", min_args=3, max_args=6)
def _fn_date(ctx, year, month, day, hour=None, minute=None, second=None):
    import calendar as _calendar

    def one(args, name):
        return _scalar_int(args, name) if args else 0

    stamp = _calendar.timegm((
        _scalar_int(year, "@Date"),
        _scalar_int(month, "@Date"),
        _scalar_int(day, "@Date"),
        one(hour, "@Date"),
        one(minute, "@Date"),
        one(second, "@Date"),
        0, 0, 0,
    ))
    return [float(stamp)]


@register_function("@adjust", min_args=7, max_args=7)
def _fn_adjust(ctx, value, years, months, days, hours, minutes, seconds):
    """@Adjust(time; y; m; d; h; min; s) — calendar-aware date arithmetic."""
    import calendar as _calendar
    import time as _time

    result = []
    dy = _scalar_int(years, "@Adjust")
    dm = _scalar_int(months, "@Adjust")
    dd = _scalar_int(days, "@Adjust")
    dh = _scalar_int(hours, "@Adjust")
    dmin = _scalar_int(minutes, "@Adjust")
    ds = _scalar_int(seconds, "@Adjust")
    for element in _numbers(value, "@Adjust"):
        t = _time.gmtime(element)
        month_total = (t.tm_mon - 1) + dm
        year = t.tm_year + dy + month_total // 12
        month = month_total % 12 + 1
        day = min(t.tm_mday, _calendar.monthrange(year, month)[1])
        base = _calendar.timegm(
            (year, month, day, t.tm_hour, t.tm_min, t.tm_sec, 0, 0, 0)
        )
        result.append(float(base + dd * 86_400 + dh * 3600 + dmin * 60 + ds))
    return result or [0.0]


# -- names -------------------------------------------------------------


@register_function("@name", min_args=2, max_args=2)
def _fn_name(ctx, action, value):
    """@Name([Abbreviate]|[Canonicalize]|[CN]|[O]; name)."""
    from repro.security.names import NotesName

    keyword = _strings(action, "@Name")[0].strip("[]").lower()
    result = []
    for raw in _strings(value, "@Name"):
        name = NotesName.parse(raw)
        if keyword == "abbreviate":
            result.append(name.abbreviated)
        elif keyword == "canonicalize":
            result.append(name.canonical)
        elif keyword == "cn":
            result.append(name.common)
        elif keyword == "o":
            result.append(name.components[-1] if len(name.components) > 1 else "")
        else:
            raise FormulaEvalError(f"@Name action [{keyword}] not supported")
    return result or [""]
